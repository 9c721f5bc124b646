package trace

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/failure"
	"repro/internal/telephony"
)

// frameSink is a bare TCP peer that keeps every frame it reads, byte for
// byte, and acks it. The ack of the first frame waits for hold to close
// when hold is set, which parks an uploader mid-send.
type frameSink struct {
	ln   net.Listener
	hold chan struct{}
	got  chan struct{} // one token per frame read; sized by newFrameSink

	mu     sync.Mutex
	frames [][]byte
}

func newFrameSink(t *testing.T, hold chan struct{}) *frameSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// No test here sends more than 16 frames, so serve never blocks on got.
	s := &frameSink{ln: ln, hold: hold, got: make(chan struct{}, 16)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go s.serve(conn)
		}
	}()
	return s
}

func (s *frameSink) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		b, raw, err := ReadFrameRaw(br, nil)
		if err != nil {
			return
		}
		s.mu.Lock()
		first := len(s.frames) == 0
		s.frames = append(s.frames, raw)
		s.mu.Unlock()
		s.got <- struct{}{}
		if first && s.hold != nil {
			<-s.hold
		}
		if writeReply(conn, batchAck, b.Seq, 0) != nil {
			return
		}
	}
}

func (s *frameSink) received() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.frames...)
}

// richEvents are events with every optional part of the context set.
func richEvents(n int, start int) []failure.Event {
	events := sampleEvents(start + n)[start:]
	for i := range events {
		events[i].APN = telephony.APNIMS
		events[i].HasTransition = true
		events[i].Transition = failure.TransitionInfo{FromLevel: 1, ToLevel: 2}
	}
	return events
}

// TestRetryAfterAckLossResendsTheSameBytes: a sealed batch's buffer is not
// reused before its ack, so Records made between the lost ack and the
// retry cannot leak into the re-sent frame — the collector's dedup gate
// sees the identical bytes twice.
func TestRetryAfterAckLossResendsTheSameBytes(t *testing.T) {
	sink := newFrameSink(t, nil)
	up := NewUploader(sink.ln.Addr().String(), 7)
	defer up.Close()
	up.SetChaos(&scriptedChaos{faults: []UploadFaultClass{FaultAckLoss}})
	up.SetWiFi(true)
	up.FlushThreshold = 100
	first, later := richEvents(10, 0), richEvents(5, 10)
	for _, e := range first {
		up.Record(e)
	}
	if err := up.Flush(); !errors.Is(err, ErrAckLost) {
		t.Fatalf("Flush error = %v, want ErrAckLost", err)
	}
	<-sink.got
	for _, e := range later {
		up.Record(e)
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	frames := sink.received()
	if len(frames) != 3 {
		t.Fatalf("sink read %d frames, want the first batch twice and the second once", len(frames))
	}
	if !bytes.Equal(frames[0], frames[1]) {
		t.Fatal("the retried frame's bytes differ from the original's")
	}
	if got := decodeFrame(t, frames[1]); got.Seq != 1 || !reflect.DeepEqual(got.Events, first) {
		t.Fatalf("retried frame carries seq %d and %d events, not the first batch", got.Seq, len(got.Events))
	}
	if got := decodeFrame(t, frames[2]); got.Seq != 2 || !reflect.DeepEqual(got.Events, later) {
		t.Fatalf("second frame carries seq %d and %d events, not the later batch", got.Seq, len(got.Events))
	}
}

// TestRecycledBufferIsUnshared follows one buffer through its life: acked,
// it comes back as the spare; sealed batches that are still unacked keep
// their own storage while Record fills the recycled one.
func TestRecycledBufferIsUnshared(t *testing.T) {
	sink := newFrameSink(t, nil)
	up := NewUploader(sink.ln.Addr().String(), 7)
	defer up.Close()
	chaos := &scriptedChaos{}
	up.SetChaos(chaos)
	up.SetWiFi(true)
	up.FlushThreshold = 100
	a, b, c := richEvents(8, 0), richEvents(3, 8), richEvents(6, 11)
	for _, e := range a {
		up.Record(e)
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	up.mu.Lock()
	spare := up.spare[:cap(up.spare)]
	up.mu.Unlock()
	if len(spare) < len(a) {
		t.Fatalf("acked batch left a %d-event spare buffer, want its own %d-event one back", len(spare), len(a))
	}

	// Batch b is sealed but its send fails; Record then fills the buffer
	// batch a gave back.
	chaos.mu.Lock()
	chaos.faults = []UploadFaultClass{FaultDial}
	chaos.mu.Unlock()
	for _, e := range b {
		up.Record(e)
	}
	if err := up.Flush(); err == nil {
		t.Fatal("Flush through an injected outage succeeded")
	}
	for _, e := range c {
		up.Record(e)
	}
	up.mu.Lock()
	sealed := append([]failure.Event(nil), up.sealed[0].Events...)
	reused := len(up.pending) > 0 && &up.pending[0] == &spare[0]
	up.mu.Unlock()
	if !reused {
		t.Fatal("Record after the ack did not continue in the recycled buffer")
	}
	if !reflect.DeepEqual(sealed, b) {
		t.Fatal("Record after an ack wrote into a sealed, unacked batch")
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	frames := sink.received()
	if len(frames) != 3 {
		t.Fatalf("sink read %d frames, want 3", len(frames))
	}
	for i, want := range [][]failure.Event{a, b, c} {
		if got := decodeFrame(t, frames[i]); got.Seq != uint64(i+1) || !reflect.DeepEqual(got.Events, want) {
			t.Fatalf("frame %d carries seq %d and %d events, want seq %d and %d", i, got.Seq, len(got.Events), i+1, len(want))
		}
	}
}

// TestSpilledMidSendBatchIsNotRecycled parks a send between frame and
// ack, overflows the buffer cap so Record moves the in-flight batch to
// the spill WAL, and then lets the ack through: the batch is no longer
// the uploader's to recycle, and the WAL copies are delivered intact.
func TestSpilledMidSendBatchIsNotRecycled(t *testing.T) {
	hold := make(chan struct{})
	sink := newFrameSink(t, hold)
	up := NewUploader(sink.ln.Addr().String(), 7)
	defer up.Close()
	if err := up.EnableSpill(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	up.FlushThreshold = 100
	up.BufferLimit = 5
	first, extra := richEvents(5, 0), richEvents(1, 5)
	for _, e := range first {
		up.Record(e)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		up.SetWiFi(true) // flushes; parks in the sink's held ack
	}()
	<-sink.got
	wg.Add(1)
	go func() {
		defer wg.Done()
		up.Record(extra[0]) // past the cap: everything moves to the WAL, then waits to flush
	}()
	waitFor(t, func() bool { return up.Spilled() == 6 })
	close(hold)
	wg.Wait()
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	up.mu.Lock()
	spare := up.spare
	up.mu.Unlock()
	if spare != nil {
		t.Fatal("a batch moved to the spill WAL mid-send was recycled on its ack")
	}
	frames := sink.received()
	if len(frames) != 3 || !bytes.Equal(frames[0], frames[1]) {
		t.Fatalf("sink read %d frames, want the in-flight batch, its WAL copy (same bytes) and the overflow batch", len(frames))
	}
	if got := decodeFrame(t, frames[1]); !reflect.DeepEqual(got.Events, first) {
		t.Fatal("the WAL copy of the in-flight batch is not the batch")
	}
	if got := decodeFrame(t, frames[2]); got.Seq != 2 || !reflect.DeepEqual(got.Events, extra) {
		t.Fatal("the overflow batch did not arrive intact")
	}
	if up.Pending() != 0 {
		t.Fatalf("Pending = %d after everything was acked", up.Pending())
	}
}
