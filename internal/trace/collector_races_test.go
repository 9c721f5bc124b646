package trace

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
)

// TestDrainDeadlineSurvivesArmRace forces the historical overwrite race
// through the armDeadlineHook seam: a serve goroutine reads
// draining=false, parks at the seam, Drain runs its deadline pass, and
// then the goroutine arms. Before the fix the arm happened outside the
// mutex, so it overwrote the drain deadline with the full idle timeout
// and Drain's wg.Wait sat until ReadTimeout (30s here — the test timed
// out). With decision and arm under c.mu, Drain's pass is ordered after
// the arm and the drain deadline wins.
func TestDrainDeadlineSurvivesArmRace(t *testing.T) {
	// Install the seam before the collector exists: goroutine creation is
	// then the happens-before edge that publishes the hook to the serve
	// loops.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	armDeadlineHook = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	defer func() { armDeadlineHook = nil }()

	col, err := NewCollectorWith("127.0.0.1:0", NewDataset(), CollectorOptions{
		Store:       testStore(t),
		ReadTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-entered // the serve goroutine decided "not draining" and is parked pre-arm

	drainErr := make(chan error, 1)
	go func() { drainErr <- col.Drain(100 * time.Millisecond) }()
	// Let Drain reach its deadline pass (it queues on c.mu, which the
	// parked arm still holds), then release the arm.
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case err := <-drainErr:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung: the idle timeout overwrote the drain deadline")
	}
}

// TestCloseDuringDrainWaitsForAck interleaves Close with an in-progress
// Drain while a batch is crossing the wire. The old Close force-closed
// every connection immediately, cutting the half-sent frame and voiding
// the drain guarantee; now it must wait for the drain, so the batch
// completes, is stored, and is acked.
func TestCloseDuringDrainWaitsForAck(t *testing.T) {
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 4, Seq: 1, Events: sampleEvents(6)})
	if err != nil {
		t.Fatal(err)
	}
	half := len(frame) / 2
	if _, err := conn.Write(frame[:half]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		col.mu.Lock()
		defer col.mu.Unlock()
		return len(col.conns) == 1
	})

	drainErr := make(chan error, 1)
	go func() { drainErr <- col.Drain(5 * time.Second) }()
	waitFor(t, func() bool {
		col.mu.Lock()
		defer col.mu.Unlock()
		return col.draining
	})
	closeErr := make(chan error, 1)
	go func() { closeErr <- col.Close() }()
	// Close must park behind the drain, not force-close the conn.
	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-closeErr:
		t.Fatalf("Close returned (%v) while the drain was still in progress", err)
	default:
	}

	if _, err := conn.Write(frame[half:]); err != nil {
		t.Fatalf("connection cut mid-frame during drain: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	kind, seq, _, err := readReply(conn, new(replyBuf))
	if err != nil || kind != batchAck || seq != 1 {
		t.Fatalf("reply = kind 0x%02x seq %d err %v, want ack for seq 1", kind, seq, err)
	}
	conn.Close() // frame boundary: let the serve loop exit without waiting out the grace

	for i := 0; i < 2; i++ {
		select {
		case err := <-drainErr:
			if err != nil {
				t.Fatalf("Drain: %v", err)
			}
		case err := <-closeErr:
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Drain/Close did not both return")
		}
	}
	if got := ds.Len(); got != 6 {
		t.Fatalf("dataset has %d events after acked drain, want 6", got)
	}
}

// TestShedHandshakeSpeaksEachDialect puts the collector over its
// connection cap and probes the shed path both ways: a client opening
// with the 0xA6 frame tag must receive the 13-byte retry-after nack,
// while any other first byte — an older build's tag from 0xA3 to 0xA5
// included, whose frames no collector would accept — must be shed by a
// bare close with zero reply bytes.
func TestShedHandshakeSpeaksEachDialect(t *testing.T) {
	col, err := NewCollectorWith("127.0.0.1:0", NewDataset(), CollectorOptions{
		Store:      testStore(t),
		MaxConns:   1,
		RetryAfter: 77 * time.Millisecond,
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
	waitFor(t, func() bool {
		col.mu.Lock()
		defer col.mu.Unlock()
		return len(col.conns) == 1
	})

	probe := func(first byte) net.Conn {
		conn, err := net.Dial("tcp", col.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte{first}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		return conn
	}

	v3 := probe(versionV3)
	defer v3.Close()
	kind, _, retryAfter, err := readReply(v3, new(replyBuf))
	if err != nil || kind != batchNack {
		t.Fatalf("0xA6 probe: reply kind 0x%02x err %v, want nack", kind, err)
	}
	if retryAfter != 77*time.Millisecond {
		t.Errorf("0xA6 probe: retry-after = %v, want 77ms", retryAfter)
	}

	others := append([]byte{0xA2}, olderTags()...)
	for _, first := range others {
		other := probe(first)
		defer other.Close()
		var buf [replyLen]byte
		n, err := other.Read(buf[:])
		if n != 0 || err != io.EOF {
			t.Fatalf("0x%02x shed wrote %d reply bytes (err %v), want a bare close", first, n, err)
		}
	}
	if got, want := col.Nacks(), int64(1+len(others)); got != want {
		t.Errorf("Nacks = %d, want %d (every shed counts)", got, want)
	}
}

// TestMalformedV3FrameDropsConnUnacked feeds the collector frames it
// must refuse — a valid v3 header with a garbage body, the retired v1 and
// v2 framings, an older build's gzip'd frame or one tagged 0xA3 to 0xA5, and a
// well-formed v3 frame without a sequence number: the
// connection must be dropped with no reply bytes, the drop metric must
// move, and nothing may reach the dataset or the store.
func TestMalformedV3FrameDropsConnUnacked(t *testing.T) {
	v1Shaped := []byte{0, 0, 0, 4, 0x1f, 0x8b, 8, 0} // uint32 BE length ++ gzip magic
	seqZero, err := AppendBatchV3(nil, &Batch{DeviceID: 1, Events: sampleEvents(4)})
	if err != nil {
		t.Fatal(err)
	}
	older := []struct {
		name  string
		frame []byte
	}{}
	for _, tag := range olderTags() {
		older = append(older, struct {
			name  string
			frame []byte
		}{fmt.Sprintf("0x%02X frame", tag), olderFrame(phoneFrame(t), tag)})
	}
	for _, tc := range append(append(outOfRangeFrames(), older...), []struct {
		name  string
		frame []byte
	}{
		// versionV3 ++ flags 0 ++ body len 4 ++ a varint that never terminates.
		{"garbage v3 body", []byte{versionV3, 0x00, 0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef}},
		{"v1-shaped frame", v1Shaped},
		{"v2-shaped frame", append([]byte{0xA2}, v1Shaped...)},
		{"gzip'd frame", gzippedFrame(t, nonCanonicalFrame())},
		{"v3 frame with Seq 0", seqZero},
	}...) {
		t.Run(tc.name, func(t *testing.T) {
			before := mColDropped.Value()
			st, err := OpenSegStore(t.TempDir(), SegStoreOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ds := NewDataset()
			col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: st})
			if err != nil {
				t.Fatal(err)
			}
			defer col.Close()

			conn, err := net.Dial("tcp", col.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			var buf [replyLen]byte
			n, err := conn.Read(buf[:])
			if n != 0 || err != io.EOF {
				t.Fatalf("collector replied %d bytes (err %v), want a bare close", n, err)
			}
			waitFor(t, func() bool { return mColDropped.Value() > before })
			if ds.Len() != 0 {
				t.Fatalf("dataset has %d events from a refused frame", ds.Len())
			}
			for _, seg := range st.Segments() {
				if seg.Frames != 0 {
					t.Fatalf("store holds %d frames from a refused frame", seg.Frames)
				}
			}
			if got := segmentFileBytes(t, st.Dir()); len(got) != 0 {
				t.Fatalf("store directory holds %d frame bytes from a refused frame", len(got))
			}
		})
	}
}

// TestTruncatedFrameBackoffThenRestartRecovery is the uploader-side view
// of the malformed-frame path, carried across a collector crash: a
// truncated v3 frame fails the flush (backoff armed, drop counted, no
// event lost), the collector is SIGKILLed and rebooted from its segment
// store, and the uploader's retry then lands everything exactly once.
func TestTruncatedFrameBackoffThenRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	addr := col.Addr()
	dropBefore := mColDropped.Value()

	up := NewUploader(addr, 7)
	up.SetChaos(&scriptedChaos{faults: []UploadFaultClass{FaultTruncate}})
	up.SetWiFi(true)
	events := sampleEvents(10)
	var want Digest
	for _, e := range events {
		up.Record(e)
		want.Add(EventDigest(&e))
	}
	if err := up.Flush(); err == nil {
		t.Fatal("truncated send reported success")
	}
	if up.RetryDelay() <= 0 {
		t.Error("failed flush did not arm the backoff timer")
	}
	if up.Pending() != 10 {
		t.Fatalf("Pending = %d after truncated send, want 10 (no loss)", up.Pending())
	}
	waitFor(t, func() bool { return mColDropped.Value() > dropBefore })
	if ds.Len() != 0 {
		t.Fatalf("dataset has %d events from a truncated frame", ds.Len())
	}

	// Crash the collector and its store, then reboot from disk.
	col.Kill()
	st.Kill()
	got := NewDataset()
	st2, err := OpenSegStore(dir, SegStoreOptions{}, ReplayInto(got))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got.Len() != 0 {
		t.Fatalf("replay produced %d events from a store that admitted nothing", got.Len())
	}
	col2, err := NewCollectorWith(addr, got, CollectorOptions{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()

	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Len() == 10 })
	if up.Pending() != 0 {
		t.Errorf("Pending = %d after acked retry", up.Pending())
	}
	if d := got.MultisetDigest(); d != want {
		t.Errorf("recovered multiset %s != recorded %s", d, want)
	}
}

// TestDuplicateAckWaitsForDurableAppend holds a fresh batch's durable
// append in flight (persistHook) while the same (device, seq) arrives on
// a second connection. The duplicate must not be acked before the
// original append lands — an early ack would let the device trim a batch
// that a crash could still lose — and afterwards both connections are
// acked while the batch is stored exactly once.
//
// ci/verify.sh's race stage runs it 20 times: the dedup gate is one mutex
// around one store call that checks and advances a mark, so what it promises
// is an interleaving, and one run samples few.
func TestDuplicateAckWaitsForDurableAppend(t *testing.T) {
	st, err := OpenSegStore(t.TempDir(), SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Install the seam before the collector exists so goroutine creation
	// publishes it to the serve loops.
	hold := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	persistHook = func(*Batch) {
		once.Do(func() {
			close(entered)
			<-hold
		})
	}
	defer func() { persistHook = nil }()

	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 9, Seq: 1, Events: sampleEvents(5)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Write(frame); err != nil {
		t.Fatal(err)
	}
	<-entered // A's append is in flight, unacked

	b, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The duplicate must be parked, not acked, while the append pends.
	b.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	var peek [1]byte
	var ne net.Error
	if _, err := b.Read(peek[:]); !(errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("duplicate got a reply before the append was durable (read err %v)", err)
	}

	close(hold)
	for name, conn := range map[string]net.Conn{"original": a, "duplicate": b} {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		kind, seq, _, err := readReply(conn, new(replyBuf))
		if err != nil || kind != batchAck || seq != 1 {
			t.Fatalf("%s reply = kind 0x%02x seq %d err %v, want ack for seq 1", name, kind, seq, err)
		}
	}
	if got := ds.Len(); got != 5 {
		t.Fatalf("dataset has %d events, want 5 (stored once)", got)
	}
	if col.DedupHits() != 1 {
		t.Errorf("DedupHits = %d, want 1", col.DedupHits())
	}
	frames := 0
	for _, info := range st.Segments() {
		frames += info.Frames
	}
	if frames != 1 {
		t.Errorf("store holds %d frames, want 1 (duplicate must not be appended)", frames)
	}
}

// TestCollectorRestartFromStoreDedupsRetries is exactly-once across a
// crash: an ack is lost after the batch became durable, the collector is
// SIGKILLed, a new one boots from the replayed store on the same
// address, and the device's retry must dedup against the replayed
// high-water mark instead of double-storing.
//
// ci/verify.sh's race stage runs it 20 times: the dedup gate is one mutex
// around one store call that checks and advances a mark, so what it promises
// is an interleaving, and one run samples few.
func TestCollectorRestartFromStoreDedupsRetries(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	addr := col.Addr()

	up := NewUploader(addr, 7)
	up.SetChaos(&scriptedChaos{faults: []UploadFaultClass{FaultAckLoss}})
	up.SetWiFi(true)
	events := sampleEvents(10)
	var want Digest
	for _, e := range events {
		up.Record(e)
		want.Add(EventDigest(&e))
	}
	if err := up.Flush(); !errors.Is(err, ErrAckLost) {
		t.Fatalf("Flush error = %v, want ErrAckLost", err)
	}
	waitFor(t, func() bool { return ds.Len() == 10 })

	col.Kill()
	st.Kill()

	got := NewDataset()
	st2, err := OpenSegStore(dir, SegStoreOptions{}, ReplayInto(got))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got.Len() != 10 {
		t.Fatalf("replayed %d events, want 10 (the durable batch)", got.Len())
	}
	if m := st2.Marks()[7]; m != 1 {
		t.Fatalf("replayed mark = %d, want 1", m)
	}
	col2, err := NewCollectorWith(addr, got, CollectorOptions{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()

	// The retry of the never-acked batch must dedup, not double-store.
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	if up.Pending() != 0 {
		t.Errorf("Pending = %d after acked retry", up.Pending())
	}
	if got.Len() != 10 {
		t.Fatalf("dataset has %d events after the retry, want exactly 10", got.Len())
	}
	if col2.DedupHits() != 1 {
		t.Errorf("DedupHits = %d on the rebooted collector, want 1", col2.DedupHits())
	}
	if d := got.MultisetDigest(); d != want {
		t.Errorf("multiset %s after restart != recorded %s", d, want)
	}
}

// storeFrames counts the frames in the store's segment index.
func storeFrames(st *SegStore) int {
	frames := 0
	for _, info := range st.Segments() {
		frames += info.Frames
	}
	return frames
}

// TestConcurrentAdmitExactlyOnce hammers one store-backed collector from
// concurrent connections. Phase 1: every device uploads a batch and then
// re-sends it on a fresh connection. Phase 2: the same frame is written
// on K connections at once for every device, so K deliveries of one
// batch race each other into the gate. Either way each batch must be
// stored — dataset, segments and accounting — exactly once, and every
// other delivery acked as a duplicate.
//
// ci/verify.sh's race stage runs it 20 times: the dedup gate is one mutex
// around one store call that checks and advances a mark, so what it promises
// is an interleaving, and one run samples few.
func TestConcurrentAdmitExactlyOnce(t *testing.T) {
	st, err := OpenSegStore(t.TempDir(), SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	const devices, perBatch, K = 32, 25, 4
	deviceEvents := func(dev int) []failure.Event {
		events := sampleEvents(perBatch)
		for i := range events {
			events[i].DeviceID = uint64(dev)
		}
		return events
	}
	var want Digest
	for dev := 1; dev <= devices; dev++ {
		events := deviceEvents(dev)
		for round := 0; round < 2; round++ { // both phases carry the same events
			for i := range events {
				want.Add(EventDigest(&events[i]))
			}
		}
	}

	var wg sync.WaitGroup
	for dev := 1; dev <= devices; dev++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			for _, name := range []string{"original", "duplicate"} {
				up := NewUploader(col.Addr(), uint64(dev))
				up.SetWiFi(true)
				for _, e := range deviceEvents(dev) {
					up.Record(e)
				}
				if err := up.Flush(); err != nil {
					t.Errorf("device %d %s: %v", dev, name, err)
				}
				up.Close()
			}
		}(dev)
	}
	wg.Wait()
	if got := col.DedupHits(); got != devices {
		t.Errorf("phase 1: DedupHits = %d, want %d", got, devices)
	}
	if batches, _ := col.Stats(); batches != devices {
		t.Errorf("phase 1: Stats batches = %d, want %d", batches, devices)
	}

	start := make(chan struct{})
	for dev := 1; dev <= devices; dev++ {
		frame, err := AppendBatchV3(nil, &Batch{DeviceID: uint64(dev), Seq: 2, Events: deviceEvents(dev)})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < K; k++ {
			conn, err := net.Dial("tcp", col.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			wg.Add(1)
			go func(dev int) {
				defer wg.Done()
				<-start
				if _, err := conn.Write(frame); err != nil {
					t.Errorf("device %d: %v", dev, err)
					return
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				kind, seq, _, err := readReply(conn, new(replyBuf))
				if err != nil || kind != batchAck || seq != 2 {
					t.Errorf("device %d reply = kind 0x%02x seq %d err %v, want ack for seq 2", dev, kind, seq, err)
				}
			}(dev)
		}
	}
	close(start)
	wg.Wait()

	const batches = 2 * devices
	if got := ds.Len(); got != batches*perBatch {
		t.Fatalf("dataset has %d events, want %d (duplicates must not append)", got, batches*perBatch)
	}
	if got := ds.MultisetDigest(); got != want {
		t.Fatalf("stored multiset digest %s != recorded %s", got, want)
	}
	if got := col.DedupHits(); got != devices+(K-1)*devices {
		t.Errorf("DedupHits = %d, want %d (one per re-send, K-1 per raced batch)", got, devices+(K-1)*devices)
	}
	got, rx := col.Stats()
	if got != batches {
		t.Errorf("Stats batches = %d, want %d", got, batches)
	}
	if rx <= 0 {
		t.Errorf("Stats rxBytes = %d, want > 0", rx)
	}
	if got := storeFrames(st); got != batches {
		t.Errorf("store holds %d frames, want %d", got, batches)
	}
}

// TestFailedSealKeepsTheStoredBatch makes the seal after an append fail:
// an empty file already holds the successor segment's name, so the seal
// cannot open it. The frame was written and the device's mark advanced
// before the seal, so the batch must be acked and in the dataset — an
// unacked batch would be retried and deduped away, stored on disk but in
// no dataset. The next append must fail unacked while the successor
// cannot be created, writing nothing, and land in segment 2 once it can.
func TestFailedSealKeepsTheStoredBatch(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{SegmentSize: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	blocker := st.segPath(2)
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	frame := func(seq uint64) []byte {
		f, err := AppendBatchV3(nil, &Batch{DeviceID: 7, Seq: seq, Events: sampleEvents(1)})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", col.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}

	sealErrors := mSegSealErrors.Value()
	if kind, seq := sendFrame(t, dial(), frame(1)); kind != batchAck || seq != 1 {
		t.Fatalf("reply kind 0x%02x seq %d, want an ack for seq 1", kind, seq)
	}
	if ds.Len() != 1 || st.Marks()[7] != 1 {
		t.Fatalf("dataset %d events, mark %d; want the stored batch in both", ds.Len(), st.Marks()[7])
	}
	if got := mSegSealErrors.Value() - sealErrors; got != 1 {
		t.Fatalf("seal errors counted %d, want 1", got)
	}

	conn := dial()
	if _, err := conn.Write(frame(2)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, replyLen)); n != 0 || err != io.EOF {
		t.Fatalf("collector replied %d bytes (err %v) with no segment to write to, want a bare close", n, err)
	}
	if fi, err := os.Stat(blocker); err != nil {
		t.Fatal(err)
	} else if fi.Size() != 0 {
		t.Fatalf("blocker holds %d bytes; the failed append must write nothing", fi.Size())
	}
	if ds.Len() != 1 || st.Marks()[7] != 1 {
		t.Fatalf("dataset %d events, mark %d after the failed append; want 1 and 1", ds.Len(), st.Marks()[7])
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if kind, seq := sendFrame(t, dial(), frame(2)); kind != batchAck || seq != 2 {
		t.Fatalf("retry: reply kind 0x%02x seq %d, want an ack for seq 2", kind, seq)
	}
	segs := st.Segments()
	if ds.Len() != 2 || len(segs) < 2 || segs[1].ID != 2 || segs[1].Frames != 1 ||
		len(segs[1].Devices) != 1 || segs[1].Devices[0].MinSeq != 2 {
		t.Fatalf("dataset %d events, segments %+v; want seq 2 alone in segment 2", ds.Len(), segs)
	}
}

// TestDuplicateBehindFailedAppend holds a fresh batch at the durable
// append (persistHook) while the same (device, seq) arrives on a second
// connection, then kills the store and releases: the original's append
// fails, and the duplicate — which finds no mark once it gets the gate —
// is admitted as fresh and fails the same way. Neither connection is
// acked, nothing is stored or marked, no dedup hit is counted, and the
// device's retry into a reopened store is admitted fresh.
//
// ci/verify.sh's race stage runs it 20 times: the dedup gate is one mutex
// around one store call that checks and advances a mark, so what it promises
// is an interleaving, and one run samples few.
func TestDuplicateBehindFailedAppend(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	persistHook = func(*Batch) {
		once.Do(func() {
			close(entered)
			<-hold
		})
	}
	defer func() { persistHook = nil }()

	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 9, Seq: 1, Events: sampleEvents(5)})
	if err != nil {
		t.Fatal(err)
	}
	send := func(addr string) net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		return conn
	}
	a := send(col.Addr())
	<-entered // the original holds the gate, its append not yet made
	b := send(col.Addr())
	// The outcome is the same wherever the duplicate is when the store
	// dies; the pause only makes it likely to be parked on the gate.
	time.Sleep(50 * time.Millisecond)
	st.Kill()
	close(hold)

	for name, conn := range map[string]net.Conn{"original": a, "duplicate": b} {
		var buf [replyLen]byte
		if n, err := conn.Read(buf[:]); n != 0 || err != io.EOF {
			t.Fatalf("%s got %d reply bytes (err %v), want a bare close", name, n, err)
		}
	}
	col.Kill() // waits for both serve loops: the counters below are final
	if got := ds.Len(); got != 0 {
		t.Fatalf("dataset has %d events from a batch that was never stored", got)
	}
	if batches, _ := col.Stats(); batches != 0 || col.DedupHits() != 0 {
		t.Fatalf("batches = %d, DedupHits = %d; want 0 and 0 (a failed append is no original to duplicate)", batches, col.DedupHits())
	}
	if got := segmentFileBytes(t, dir); len(got) != 0 {
		t.Fatalf("store directory holds %d frame bytes", len(got))
	}

	st2, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if m, ok := st2.Marks()[9]; ok {
		t.Fatalf("reopened store marks device 9 at %d; the failed append must leave no mark", m)
	}
	col2, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	kind, seq, _, err := readReply(send(col2.Addr()), new(replyBuf))
	if err != nil || kind != batchAck || seq != 1 {
		t.Fatalf("retry reply = kind 0x%02x seq %d err %v, want ack for seq 1", kind, seq, err)
	}
	if batches, _ := col2.Stats(); batches != 1 || col2.DedupHits() != 0 || ds.Len() != 5 || storeFrames(st2) != 1 {
		t.Fatalf("retry: batches %d, dedup hits %d, dataset %d, frames %d; want 1, 0, 5, 1 (admitted fresh)",
			batches, col2.DedupHits(), ds.Len(), storeFrames(st2))
	}
}

// TestSeedMarksCheckpointedBeforeReturn: marks seeded into a store are on
// disk, in its checkpoint, when SeedMarks returns — a read-only open of
// the directory beside the live store sees them.
//
// ci/verify.sh's race stage runs it 20 times: the dedup gate is one mutex
// around one store call that checks and advances a mark, so what it promises
// is an interleaving, and one run samples few.
func TestSeedMarksCheckpointedBeforeReturn(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n, err := st.SeedMarks(map[uint64]uint64{3: 5, 4: 2}); n != 2 || err != nil {
		t.Fatalf("SeedMarks raised %d devices (err %v), want 2", n, err)
	}
	ro, err := OpenSegStore(dir, SegStoreOptions{ReadOnly: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if got := ro.Marks(); got[3] != 5 || got[4] != 2 {
		t.Fatalf("a read-only open sees marks %v, want device 3 at 5 and device 4 at 2", got)
	}
}

// TestFailedSeedLeavesTheGateAlone: a seed whose checkpoint cannot be
// written is refused whole, and since the gate reads the store's marks it
// must leave them as they were — a fresh batch for the seeded device is
// then stored and acked, not dup-acked on a mark that never reached disk.
//
// ci/verify.sh's race stage runs it 20 times: the dedup gate is one mutex
// around one store call that checks and advances a mark, so what it promises
// is an interleaving, and one run samples few.
func TestFailedSeedLeavesTheGateAlone(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// Take the directory away: the checkpoint can no longer be written,
	// while the open active segment still takes appends.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	takeover0 := mColTakeover.Value()
	if n, err := st.SeedMarks(map[uint64]uint64{6: 1}); n != 0 || err == nil {
		t.Fatalf("SeedMarks that could not be checkpointed raised %d devices (err %v), want 0 and an error", n, err)
	}
	if d := mColTakeover.Value() - takeover0; d != 0 {
		t.Errorf("takeover counter moved by %d on a refused seed", d)
	}

	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 6, Seq: 1, Events: sampleEvents(3)})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if kind, seq := sendFrame(t, conn, frame); kind != batchAck || seq != 1 {
		t.Fatalf("fresh frame: reply kind 0x%02x seq %d, want ack of seq 1", kind, seq)
	}
	if ds.Len() != 3 || col.DedupHits() != 0 || storeFrames(st) != 1 {
		t.Fatalf("dataset %d events, dedup hits %d, store frames %d; want 3, 0, 1 (stored fresh)",
			ds.Len(), col.DedupHits(), storeFrames(st))
	}
}
