package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/telephony"
)

// frameSink is a bare TCP peer that keeps every frame it reads, byte for
// byte, and answers it with kind: an ack, or a redirect nack after which
// it closes the connection, as a collector does. The reply to the first
// frame waits for hold to close when hold is set, which parks an uploader
// mid-send.
type frameSink struct {
	ln   net.Listener
	hold chan struct{}
	kind byte
	got  chan struct{} // one token per frame read; sized by newReplySink

	mu     sync.Mutex
	frames [][]byte
}

func newFrameSink(t *testing.T, hold chan struct{}) *frameSink {
	t.Helper()
	return newReplySink(t, hold, batchAck)
}

func newReplySink(t *testing.T, hold chan struct{}, kind byte) *frameSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// No test here sends more than 16 frames, so serve never blocks on got.
	s := &frameSink{ln: ln, hold: hold, kind: kind, got: make(chan struct{}, 16)}
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
	var b Batch
	for {
		raw, err := ReadFrameRaw(br, nil, &b)
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
		if writeReply(conn, new(replyBuf), s.kind, b.Seq, 0) != nil || s.kind != batchAck {
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

// sealedBytes is the frame device 7's batch seq of events seals to.
func sealedBytes(t *testing.T, seq uint64, events []failure.Event) []byte {
	t.Helper()
	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 7, Seq: seq, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestRetryAfterAckLossResendsTheSameBytes: a sealed frame is not written
// again before its ack, so every attempt at it — a retry after a lost ack
// or a re-send to the owner a redirect names — carries the bytes it was
// sealed to, and Records made in between cannot
// leak into it: the collector's dedup gate sees the identical bytes.
//
// ci/verify.sh's race stage runs it 20 times under -race, with the
// uploader's other recycling tests: every attempt at a sealed frame must
// carry its sealed bytes on every run.
func TestRetryAfterAckLossResendsTheSameBytes(t *testing.T) {
	first, later := richEvents(10, 0), richEvents(5, 10)
	// expect checks that got holds the frames sealed from batches, in order.
	expect := func(t *testing.T, got [][]byte, batches ...[]failure.Event) {
		t.Helper()
		if len(got) != len(batches) {
			t.Fatalf("read %d frames, want %d", len(got), len(batches))
		}
		for i, events := range batches {
			b := decodeFrame(t, got[i])
			if want := sealedBytes(t, b.Seq, events); !bytes.Equal(got[i], want) {
				t.Fatalf("frame %d (seq %d) is not the frame its batch sealed to", i, b.Seq)
			}
		}
	}

	t.Run("ack-loss", func(t *testing.T) {
		sink := newFrameSink(t, nil)
		up := NewUploader(sink.ln.Addr().String(), 7)
		defer up.Close()
		up.SetChaos(&scriptedChaos{faults: []UploadFaultClass{FaultAckLoss}})
		up.SetBackoff(time.Hour, time.Hour, nil) // only explicit flushes
		up.SetWiFi(true)
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
		expect(t, sink.received(), first, first, later)
	})

	t.Run("redirect", func(t *testing.T) {
		refuse := newReplySink(t, nil, batchWrongCollector)
		owner := newFrameSink(t, nil)
		up := NewUploader(refuse.ln.Addr().String(), 7)
		defer up.Close()
		up.SetRouter(&flipRouter{addrA: refuse.ln.Addr().String(), addrB: owner.ln.Addr().String()})
		up.SetWiFi(true)
		for _, e := range first {
			up.Record(e)
		}
		if err := up.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, e := range later {
			up.Record(e)
		}
		if err := up.Flush(); err != nil {
			t.Fatal(err)
		}
		expect(t, refuse.received(), first)
		expect(t, owner.received(), first, later)
	})
}

// TestRecycledBufferIsUnshared follows one frame buffer through its life:
// acked, it is parked for the next seal, and the next frame is sealed into
// it; while that frame waits for its ack, Record and a later seal write
// elsewhere, so its bytes stay the ones it was sealed to.
//
// ci/verify.sh's race stage runs it 20 times under -race, with the
// uploader's other recycling tests: a recycled frame buffer must stay
// unshared on every run.
func TestRecycledBufferIsUnshared(t *testing.T) {
	sink := newFrameSink(t, nil)
	up := NewUploader(sink.ln.Addr().String(), 7)
	defer up.Close()
	chaos := &scriptedChaos{}
	up.SetChaos(chaos)
	up.SetBackoff(time.Hour, time.Hour, nil) // only explicit flushes
	up.SetWiFi(true)
	a, b, c := richEvents(8, 0), richEvents(3, 8), richEvents(6, 11)
	for _, e := range a {
		up.Record(e)
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	up.mu.Lock()
	recycled := up.pending.frame[:cap(up.pending.frame)]
	up.mu.Unlock()
	if len(recycled) < len(sealedBytes(t, 1, a)) {
		t.Fatalf("the acked frame left a %d B buffer parked, want its own", len(recycled))
	}

	// Batch b is sealed into the buffer a gave back, but its send fails;
	// Record then builds c, which is sealed while b waits.
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
	if err := up.sealLocked(); err != nil {
		t.Fatal(err)
	}
	fb, fc := up.sealed[0].frame, up.sealed[1].frame
	reused := &fb[0] == &recycled[0]
	apart := &fc[0] != &recycled[0]
	sealedB := bytes.Clone(fb)
	up.mu.Unlock()
	if !reused || !apart {
		t.Fatalf("the frame after the ack was sealed into the recycled buffer: %v; the one after it, elsewhere: %v", reused, apart)
	}
	if !bytes.Equal(sealedB, sealedBytes(t, 2, b)) {
		t.Fatal("Record or a seal after the ack wrote into a sealed, unacked frame")
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	frames := sink.received()
	if len(frames) != 3 {
		t.Fatalf("sink read %d frames, want 3", len(frames))
	}
	for i, want := range [][]failure.Event{a, b, c} {
		if !bytes.Equal(frames[i], sealedBytes(t, uint64(i+1), want)) {
			t.Fatalf("frame %d is not batch %d's sealed frame", i, i+1)
		}
	}
}

// TestAckedFrameBufferIsRecycled: an acked frame's buffer, emptied, is the
// next seal's, so a steady-state uploader allocates no frame per flush.
// The second frame is the shorter one, so it fits the first's buffer.
//
// ci/verify.sh's race stage runs it 20 times under -race, with the
// uploader's other recycling tests: an acked frame's buffer must be the next
// seal's on every run.
func TestAckedFrameBufferIsRecycled(t *testing.T) {
	sink := newFrameSink(t, nil)
	up := NewUploader(sink.ln.Addr().String(), 7)
	defer up.Close()
	chaos := &scriptedChaos{}
	up.SetChaos(chaos)
	up.SetWiFi(true)
	up.Record(richEvents(1, 1)[0])
	up.mu.Lock()
	if err := up.sealLocked(); err != nil {
		t.Fatal(err)
	}
	first := up.sealed[0].frame
	up.mu.Unlock()
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	up.mu.Lock()
	parked := up.pending.frame
	up.mu.Unlock()
	if len(parked) != 0 || cap(parked) == 0 || &parked[:1][0] != &first[0] {
		t.Fatal("the acked frame's buffer was not parked, emptied, for the next seal")
	}

	chaos.mu.Lock()
	chaos.faults = []UploadFaultClass{FaultDial}
	chaos.mu.Unlock()
	up.Record(richEvents(1, 0)[0])
	if err := up.Flush(); err == nil {
		t.Fatal("Flush through an injected outage succeeded")
	}
	up.mu.Lock()
	second := up.sealed[0]
	up.mu.Unlock()
	if &second.frame[0] != &first[0] || second.seq != 2 || !bytes.Equal(second.frame, sealedBytes(t, 2, richEvents(1, 0))) {
		t.Fatalf("the next seal did not write seq 2's frame into the acked buffer (seq %d)", second.seq)
	}
}

// releaseWatch arms a finalizer on the newest sealed frame's bytes and
// returns the channel it closes; the caller keeps no reference to them.
func releaseWatch(up *Uploader) <-chan struct{} {
	released := make(chan struct{})
	up.mu.Lock()
	runtime.SetFinalizer(&up.sealed[len(up.sealed)-1].frame[0], func(*byte) { close(released) })
	up.mu.Unlock()
	return released
}

// TestShedBatchesAreReleased: an acked frame whose buffer is not parked
// for the next seal leaves the uploader for good — no slot of the sealed
// backlog's array still points at its bytes — so a drained backlog holds
// no memory past the one parked buffer.
//
// ci/verify.sh's race stage runs it 20 times under -race, with the
// uploader's other recycling tests: an acked frame not kept for the next
// seal must become unreachable on every run.
func TestShedBatchesAreReleased(t *testing.T) {
	up := NewUploader(ackSink(t), 7)
	defer up.Close()
	up.SetChaos(&scriptedChaos{faults: []UploadFaultClass{FaultDial, FaultDial}})
	up.SetWiFi(true)
	for _, batch := range [][]failure.Event{richEvents(5, 0), richEvents(6, 5)} {
		for _, e := range batch {
			up.Record(e)
		}
		if err := up.Flush(); err == nil {
			t.Fatal("Flush through an injected outage succeeded")
		}
	}
	// The first frame's buffer is parked on its ack; the second's has
	// nowhere to go.
	released := releaseWatch(up)
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("the acked frame is still reachable from the uploader")
}

// ackSink acks every frame it reads without decoding its events: it parses
// the header's DeviceID and Seq in place and reuses one buffer, so past
// each connection's accept and buffers it allocates nothing, and an
// allocation count taken beside it is the client's.
func ackSink(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go func() {
				defer conn.Close()
				var hdr [v3HeaderLen]byte
				var reply replyBuf
				body := make([]byte, 1<<16)
				for {
					if _, err := io.ReadFull(conn, hdr[:]); err != nil {
						return
					}
					n := int(binary.BigEndian.Uint32(hdr[2:]))
					if hdr[1] != 0 || n > len(body) {
						return
					}
					if _, err := io.ReadFull(conn, body[:n]); err != nil {
						return
					}
					_, k := binary.Uvarint(body[:n])
					seq, _ := binary.Uvarint(body[k:n])
					if writeReply(conn, &reply, batchAck, seq, 0) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestFreshUploaderAllocs counts what a new identity costs over its first
// four 16-event frames beyond what the same dial and frames cost a bare
// client (the sockets' allocations follow the Go release). Its pending
// batch, with the frame buffer the last closed uploader parked in it,
// comes from the builder pool and goes back on Close: 4 more measured,
// against 8 when it buffered event copies and encoded at flush, and 17
// before its buffers were recycled.
func TestFreshUploaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled encoders at random")
	}
	addr := ackSink(t)
	events := sampleEvents(16)
	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 1, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	var reply [replyLen]byte
	base := testing.AllocsPerRun(100, func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 4; f++ {
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, reply[:]); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
	})
	id := uint64(0)
	got := testing.AllocsPerRun(100, func() {
		id++
		up := NewUploader(addr, id)
		up.SetWiFi(true)
		for f := 0; f < 4; f++ {
			for i := range events {
				up.Record(events[i])
			}
			if err := up.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		up.Close()
	})
	if got-base > 9 {
		t.Errorf("a fresh uploader's first four frames allocate %v objects, %v more than a bare client's; want at most 9 more (4 measured)", got, got-base)
	}
}
