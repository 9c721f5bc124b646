package trace

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
)

// scriptedChaos replays a fixed fault sequence, one per send attempt, and
// records every outcome.
type scriptedChaos struct {
	mu       sync.Mutex
	faults   []UploadFaultClass
	outcomes []bool
}

func (s *scriptedChaos) UploadFault(device, seq uint64) UploadFaultClass {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.faults) == 0 {
		return FaultNone
	}
	f := s.faults[0]
	s.faults = s.faults[1:]
	return f
}

func (s *scriptedChaos) UploadOutcome(device uint64, acked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.outcomes = append(s.outcomes, acked)
}

// TestAckLossRetryIsExactlyOnce is the dedup invariant in miniature: the
// ack is killed in flight after the collector stored the batch, the
// uploader retries, and every event must land in the dataset exactly
// once.
func TestAckLossRetryIsExactlyOnce(t *testing.T) {
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	up := NewUploader(col.Addr(), 7)
	up.SetChaos(&scriptedChaos{faults: []UploadFaultClass{FaultAckLoss}})
	up.SetWiFi(true)

	events := sampleEvents(10)
	for _, e := range events {
		up.Record(e)
	}
	if err := up.Flush(); !errors.Is(err, ErrAckLost) {
		t.Fatalf("Flush error = %v, want ErrAckLost", err)
	}
	// The batch was fully written before the connection died, so the
	// collector stores it; the uploader must still hold it unacked.
	waitFor(t, func() bool { return ds.Len() == 10 })
	if up.Pending() != 10 {
		t.Fatalf("Pending = %d after lost ack, want 10", up.Pending())
	}
	if up.LastErr() == nil || up.ConsecutiveFailures() != 1 {
		t.Errorf("LastErr = %v, ConsecutiveFailures = %d; want error and 1",
			up.LastErr(), up.ConsecutiveFailures())
	}

	// Retry: the collector must dedup the re-send, not re-append it.
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	if up.Pending() != 0 {
		t.Errorf("Pending = %d after acked retry", up.Pending())
	}
	if got := ds.Len(); got != 10 {
		t.Fatalf("Dataset.Len = %d after retry, want exactly 10 (no duplication)", got)
	}
	if col.DedupHits() != 1 {
		t.Errorf("DedupHits = %d, want 1", col.DedupHits())
	}
	if up.LastErr() != nil || up.ConsecutiveFailures() != 0 {
		t.Errorf("health not reset after success: %v, %d", up.LastErr(), up.ConsecutiveFailures())
	}
}

// TestTruncatedSendRetryIsExactlyOnce covers the other half of the
// ambiguity: the connection dies mid-frame, the collector stores nothing,
// and the retry must deliver the events exactly once.
func TestTruncatedSendRetryIsExactlyOnce(t *testing.T) {
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	up := NewUploader(col.Addr(), 7)
	up.SetChaos(&scriptedChaos{faults: []UploadFaultClass{FaultTruncate}})
	up.SetWiFi(true)

	for _, e := range sampleEvents(10) {
		up.Record(e)
	}
	if err := up.Flush(); err == nil {
		t.Fatal("truncated send reported success")
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ds.Len() == 10 })
	if got := ds.Len(); got != 10 {
		t.Fatalf("Dataset.Len = %d, want 10", got)
	}
	if col.DedupHits() != 0 {
		t.Errorf("DedupHits = %d for a batch the collector never stored", col.DedupHits())
	}
}

// TestCollectorShedsOverCap fills the connection cap and asserts the next
// connection is refused with a nack carrying the configured retry-after —
// at both the wire level and through the uploader's NackError.
func TestCollectorShedsOverCap(t *testing.T) {
	col, err := NewCollectorWith("127.0.0.1:0", NewDataset(), CollectorOptions{
		Store:      testStore(t),
		MaxConns:   1,
		RetryAfter: 123 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	hog, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	// Wait until the hog occupies the single slot; a shed shows up as a
	// nack on a probe connection. The probe must send the frame tag
	// first — the shed handshake replies only to an opening 0xA6.
	waitFor(t, func() bool {
		probe, err := net.Dial("tcp", col.Addr())
		if err != nil {
			return false
		}
		defer probe.Close()
		if _, err := probe.Write([]byte{versionV3}); err != nil {
			return false
		}
		probe.SetReadDeadline(time.Now().Add(time.Second))
		kind, _, retryAfter, err := readReply(probe, new(replyBuf))
		if err != nil || kind != batchNack {
			return false
		}
		if retryAfter != 123*time.Millisecond {
			t.Fatalf("nack retry-after = %v, want 123ms", retryAfter)
		}
		return true
	})
	if col.Nacks() == 0 {
		t.Fatal("Nacks did not move")
	}

	up := NewUploader(col.Addr(), 9)
	up.SetWiFi(true)
	up.Record(sampleEvents(1)[0])
	err = up.Flush()
	var nack *NackError
	if !errors.As(err, &nack) {
		t.Fatalf("Flush error = %v, want NackError", err)
	}
	if nack.RetryAfter != 123*time.Millisecond {
		t.Errorf("NackError.RetryAfter = %v", nack.RetryAfter)
	}
	if up.RetryDelay() <= 0 {
		t.Error("nack did not arm the backoff timer")
	}
	if up.Pending() != 1 {
		t.Errorf("Pending = %d after shed", up.Pending())
	}
}

// TestCollectorDrainNoGoroutineLeak loads a collector with live uploader
// connections, drains it, and asserts the goroutine count returns to the
// pre-collector baseline: overload plus graceful shutdown must not leak
// serve goroutines.
func TestCollectorDrainNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: testStore(t), MaxConns: 4})
	if err != nil {
		t.Fatal(err)
	}
	const uploaders = 4
	ups := make([]*Uploader, uploaders)
	for i := range ups {
		ups[i] = NewUploader(col.Addr(), uint64(i+1))
		ups[i].SetWiFi(true)
		for _, e := range sampleEvents(5) {
			ups[i].Record(e)
		}
		if err := ups[i].Flush(); err != nil {
			t.Fatal(err)
		}
		defer ups[i].Close()
	}
	waitFor(t, func() bool { return ds.Len() == uploaders*5 })

	done := make(chan error, 1)
	go func() { done <- col.Drain(2 * time.Second) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung")
	}
	// Everything acked before the drain must be stored.
	if got := ds.Len(); got != uploaders*5 {
		t.Fatalf("drained dataset has %d events, want %d", got, uploaders*5)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestUploaderBadAck wires the uploader to a misbehaving collector that
// acks the wrong sequence number and asserts the distinct ErrBadAck
// (previously this branch wrapped a nil error into %!w(<nil>)).
func TestUploaderBadAck(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, _, err := ReadBatchAny(bufio.NewReader(conn)); err != nil {
			return
		}
		writeReply(conn, new(replyBuf), batchAck, 99999, 0) // wrong seq on purpose
	}()

	up := NewUploader(ln.Addr().String(), 3)
	up.SetWiFi(true)
	up.Record(sampleEvents(1)[0])
	err = up.Flush()
	if !errors.Is(err, ErrBadAck) {
		t.Fatalf("Flush error = %v, want ErrBadAck", err)
	}
	if err != nil && len(err.Error()) == 0 {
		t.Error("empty error message")
	}
	if up.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (bad ack must not trim the buffer)", up.Pending())
	}
}

// TestMultisetDigestProperties pins the digest's contract: order
// independence, duplicate sensitivity, and zero for the empty multiset.
func TestMultisetDigestProperties(t *testing.T) {
	events := sampleEvents(20)
	fwd := NewDataset()
	fwd.Publish(events)
	rev := NewDataset()
	for i := len(events) - 1; i >= 0; i-- {
		rev.Publish(events[i : i+1])
	}
	if fwd.MultisetDigest() != rev.MultisetDigest() {
		t.Error("digest depends on append order")
	}
	dup := NewDataset()
	dup.Publish(events)
	dup.Publish(events[:1])
	if dup.MultisetDigest() == fwd.MultisetDigest() {
		t.Error("digest blind to a duplicated event")
	}
	if NewDataset().MultisetDigest() != (Digest{}) {
		t.Error("empty dataset digest not zero")
	}
	if got := fwd.MultisetDigest().String(); len(got) != 64 {
		t.Errorf("digest string %q not 64 hex chars", got)
	}
}

// TestOnAdmitSeesExactlyTheAdmittedMultiset pins the admit-hook contract
// the live analysis engine builds on: the hook fires once per freshly
// admitted batch — behind the dedup gate, so a retried duplicate never
// reaches it — and the union of hook deliveries is exactly the stored
// multiset.
func TestOnAdmitSeesExactlyTheAdmittedMultiset(t *testing.T) {
	ds := NewDataset()
	seen := NewDataset()
	var mu sync.Mutex
	var calls int
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{
		Store: testStore(t),
		OnAdmit: func(events []failure.Event) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			seen.Publish(events)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// A lost ack forces a real duplicate delivery on the wire.
	up := NewUploader(col.Addr(), 7)
	up.SetChaos(&scriptedChaos{faults: []UploadFaultClass{FaultAckLoss}})
	up.SetWiFi(true)
	for _, e := range sampleEvents(10) {
		up.Record(e)
	}
	if err := up.Flush(); !errors.Is(err, ErrAckLost) {
		t.Fatalf("Flush error = %v, want ErrAckLost", err)
	}
	waitFor(t, func() bool { return ds.Len() == 10 })
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	if col.DedupHits() != 1 {
		t.Fatalf("DedupHits = %d, want 1 (the retry must have been deduped)", col.DedupHits())
	}
	mu.Lock()
	if calls != 1 {
		t.Errorf("OnAdmit calls = %d, want 1 — the deduped retry must not reach the hook", calls)
	}
	if got, want := seen.MultisetDigest(), ds.MultisetDigest(); got != want {
		t.Errorf("hook multiset %s != stored multiset %s", got, want)
	}
	mu.Unlock()
}
