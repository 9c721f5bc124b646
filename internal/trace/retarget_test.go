package trace

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failure"
)

// retargetAckLoss injects one ack-loss on a specific (device, seq): the
// batch lands durably, the ack does not.
type retargetAckLoss struct {
	dev, seq uint64
	used     bool
}

func (c *retargetAckLoss) UploadFault(device, seq uint64) UploadFaultClass {
	if !c.used && device == c.dev && seq == c.seq {
		c.used = true
		return FaultAckLoss
	}
	return FaultNone
}

func (c *retargetAckLoss) UploadOutcome(device uint64, acked bool) {}

// TestRetargetMidFlushNoDuplicates reconnects an uploader to a collector
// restarted on a *different* port mid-flush: the old collector dies with
// one durably stored but unacked batch, a background flusher keeps
// retrying against the dead address, and Retarget lands concurrently
// with those flushes. The replayed marks on the new collector must dedup
// the retried batch (no duplicate admit), every later event must arrive
// exactly once, and no goroutine may leak.
func TestRetargetMidFlushNoDuplicates(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	ds := NewDataset()

	st1, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	col1, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	oldAddr := col1.Addr()

	const dev = 42
	u := NewUploader(oldAddr, dev)
	u.FlushThreshold = 1 << 20
	u.SetWiFi(true)
	defer u.Close()

	var recorded Digest
	recordedEvents := 0
	record := func(n int) {
		for i := 0; i < n; i++ {
			e := failure.Event{DeviceID: dev, Kind: failure.DataStall, Duration: time.Duration(i+1) * time.Second}
			recorded.Add(EventDigest(&e))
			recordedEvents++
			u.Record(e)
		}
	}

	// Seqs 1..3 acked normally; seq 4 stored durably but its ack is lost.
	for i := 0; i < 3; i++ {
		record(5)
		if err := u.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	u.SetChaos(&retargetAckLoss{dev: dev, seq: 4})
	record(5)
	if err := u.Flush(); err == nil {
		t.Fatal("ack-loss flush unexpectedly succeeded")
	}
	u.SetChaos(nil)
	for deadline := time.Now().Add(5 * time.Second); ds.Len() < recordedEvents; {
		if time.Now().After(deadline) {
			t.Fatalf("ack-lost batch never admitted: %d/%d", ds.Len(), recordedEvents)
		}
		time.Sleep(time.Millisecond)
	}

	// SIGKILL the collector, then keep flushing against the dead address
	// from a background goroutine while the restart happens.
	col1.Kill()
	st1.Kill()
	record(5) // seals as seq 5 on the next flush

	stop := make(chan struct{})
	flusherDone := make(chan struct{})
	go func() {
		defer close(flusherDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			u.Flush()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Restart on a different port. Replay rebuilds the dedup marks from
	// the same directory; the dataset already holds everything admitted,
	// so replay must not re-append (onBatch nil).
	st2, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	col2, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	if col2.Addr() == oldAddr {
		t.Skipf("ephemeral port %s reused; cannot exercise a different-port restart", oldAddr)
	}

	if !u.Retarget(col2.Addr()) {
		t.Fatal("Retarget reported no change for a new address")
	}
	for deadline := time.Now().Add(10 * time.Second); u.Pending() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("pending never drained after retarget: %d events left, last err %v", u.Pending(), u.LastErr())
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	<-flusherDone

	// Exactly once across the retarget: the retried seq-4 batch deduped
	// against the replayed marks instead of being re-admitted.
	if got := ds.Len(); got != recordedEvents {
		t.Fatalf("dataset holds %d events, recorded %d — duplicate or lost admit across retarget", got, recordedEvents)
	}
	if got := ds.MultisetDigest(); got != recorded {
		t.Fatalf("dataset digest %s != recorded %s", got, recorded)
	}
	if col2.DedupHits() == 0 {
		t.Fatal("restarted collector never deduped the retried batch")
	}
	if u.Reroutes() == 0 {
		t.Fatal("uploader reroute counter did not move")
	}

	// No goroutine leak: after closing everything, the count settles back
	// to (about) the baseline.
	u.Close()
	col2.Close()
	st2.Close()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d at start", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// flipRouter names addrA on the first resolution and addrB afterwards —
// the shape of a ring observing a membership change between an
// uploader's pre-send check and its redirect recovery.
type flipRouter struct {
	calls        atomic.Int64
	addrA, addrB string
}

func (r *flipRouter) Target(device uint64) string {
	if r.calls.Add(1) == 1 {
		return r.addrA
	}
	return r.addrB
}

// TestWrongCollectorRedirect: a collector whose Owns disclaims the
// device refuses the batch with a redirect nack and stores nothing;
// with a router installed, the very same Flush recovers by re-resolving
// and retrying at the owner.
func TestWrongCollectorRedirect(t *testing.T) {
	ds := NewDataset()
	refuse, err := NewCollectorWith("127.0.0.1:0", NewDataset(), CollectorOptions{
		Owns: func(device uint64) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer refuse.Close()
	accept, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{
		Owns: func(device uint64) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer accept.Close()

	// Without a router the redirect surfaces as ErrWrongCollector.
	u := NewUploader(refuse.Addr(), 7)
	u.FlushThreshold = 1 << 20 // no best-effort flushes; sends are counted below
	u.SetWiFi(true)
	defer u.Close()
	u.Record(failure.Event{DeviceID: 7, Kind: failure.DataStall, Duration: time.Second})
	if err := u.Flush(); !errors.Is(err, ErrWrongCollector) {
		t.Fatalf("Flush = %v, want ErrWrongCollector", err)
	}
	if refuse.Redirects() != 1 {
		t.Fatalf("refusing collector counted %d redirects, want 1", refuse.Redirects())
	}
	if ds.Len() != 0 {
		t.Fatal("a refused batch reached the dataset")
	}

	// With a router that flips to the owner after the first resolution,
	// one Flush absorbs the redirect: refuse → re-resolve → deliver.
	u.SetRouter(&flipRouter{addrA: refuse.Addr(), addrB: accept.Addr()})
	if err := u.Flush(); err != nil {
		t.Fatalf("router-recovered flush: %v", err)
	}
	if ds.Len() != 1 {
		t.Fatalf("owner holds %d events, want 1", ds.Len())
	}
	if refuse.Redirects() != 2 {
		t.Fatalf("refusing collector counted %d redirects, want 2", refuse.Redirects())
	}
	if u.Reroutes() != 1 {
		t.Fatalf("uploader rerouted %d times, want 1", u.Reroutes())
	}
}
