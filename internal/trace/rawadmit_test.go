package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/failure"
	"repro/internal/geo"
	"repro/internal/telephony"
)

// segmentFileBytes returns the concatenated contents of every segment
// file under dir, in segment order — the frame bytes the store holds.
func segmentFileBytes(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.v3s"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var out []byte
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw...)
	}
	return out
}

// sendFrame writes one pre-encoded frame and returns the collector's reply.
func sendFrame(t *testing.T, conn net.Conn, frame []byte) (kind byte, seq uint64) {
	t.Helper()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind, seq, _, err := readReply(conn, new(replyBuf))
	if err != nil {
		t.Fatalf("no reply to a %d-byte frame: %v", len(frame), err)
	}
	return kind, seq
}

// decodeFrame is the reference decode of one frame.
func decodeFrame(t *testing.T, frame []byte) *Batch {
	t.Helper()
	b, n, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil || n != len(frame) {
		t.Fatalf("frame does not decode whole: %d of %d bytes, err %v", n, len(frame), err)
	}
	return b
}

// nonCanonicalFrame hand-assembles a valid frame no encoder of ours would
// emit: its cell table carries a station no event references, its second
// station writes the MCC and MNC the first already gave, and the event's
// model id is a two-byte varint where one byte would do.
func nonCanonicalFrame() []byte {
	p := binary.AppendUvarint(nil, 5) // DeviceID
	p = binary.AppendUvarint(p, 1)    // Seq
	p = append(p, 2)                  // two stations, the first unused
	for _, cid := range []uint64{7, 9} {
		p = append(p, 1<<2) // LAC 1, no flags
		p = binary.AppendUvarint(p, 460)
		p = append(p, 0)
		p = binary.AppendUvarint(p, cid)
		p = append(p, stationByte(0, telephony.RAT4G, false))
	}
	p = append(p, 1)                                      // one event
	p = append(p, 0)                                      // head: no optional fields, a context of its own
	p = append(p, 0)                                      // device delta
	p = append(p, 0x8A, 0x00)                             // model id 5 (zigzag 10), padded to two bytes
	p = append(p, 20)                                     // android version 10
	p = append(p, 1, 2<<1, 1)                             // isp, APN 2 and not 5G, station index 1
	p = append(p, packedByte(failure.DataStall, 3, true)) // kind, level, a cause
	p = binary.AppendUvarint(p, zigzag(3))                // cause
	p = binary.AppendUvarint(p, zigzag(int64(time.Hour))) // start
	p = binary.AppendUvarint(p, zigzag(int64(12*time.Second)))
	frame := []byte{versionV3, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(frame[2:], uint32(len(p)))
	return append(frame, p...)
}

// rawEvent spells a one-event frame field by field: the way to write
// values no Event can hold or no encoder of ours would emit. The Start is
// 0 and the cause is left out.
type rawEvent struct {
	head           byte
	model, av, ops int64
	apn5G          uint64 // APN<<1 | FiveGCapable
	station        []byte // the one station: the LAC-and-flags varint through the station byte
	packed         byte
	dur            []byte
	transition     []byte
}

// stallEvent is a well-formed rawEvent of one stall with an operation
// count and a 2-byte transition; with changes it is the one the caller's
// functions make of it.
func stallEvent(changes ...func(*rawEvent)) rawEvent {
	r := rawEvent{
		head: v3EvOps | v3EvTransition, model: 7, av: 10, ops: 1,
		station:    []byte{0, 0, 0, 0, stationByte(0, telephony.RAT4G, false)}, // LAC and flags, MCC, MNC, CID, station byte
		packed:     packedByte(failure.DataStall, 3, false),
		dur:        []byte{0},
		transition: binary.LittleEndian.AppendUint16(nil, packedTransition(telephony.RAT4G, telephony.RAT5G, 5, 0)),
	}
	for _, change := range changes {
		change(&r)
	}
	return r
}

// frame assembles r's frame.
func (r rawEvent) frame() []byte {
	p := []byte{5, 1, 1} // DeviceID, Seq, one station
	p = append(p, r.station...)
	p = append(p, 1, r.head) // one event
	p = append(p, 0)         // device delta
	p = binary.AppendUvarint(p, zigzag(r.model))
	p = binary.AppendUvarint(p, zigzag(r.av))
	p = append(p, 1) // isp
	p = binary.AppendUvarint(p, r.apn5G)
	p = append(p, 0, r.packed, 0) // station index, packed byte, start
	p = append(p, r.dur...)
	if r.head&v3EvOps != 0 {
		p = binary.AppendUvarint(p, zigzag(r.ops))
	}
	p = append(p, r.transition...)
	frame := []byte{versionV3, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(frame[2:], uint32(len(p)))
	return append(frame, p...)
}

// stationByte is a station's byte for a Region and RAT that fit their 3
// bits.
func stationByte(region geo.Region, rat telephony.RAT, dense bool) byte {
	b := byte(region) | byte(rat)<<3
	if dense {
		b |= v3CellDense
	}
	return b
}

// packedByte is an event record's packed byte: the kind and level, which
// must fit their 3 bits, and whether a cause follows.
func packedByte(kind failure.Kind, level telephony.SignalLevel, cause bool) byte {
	v := byte(kind) | byte(level)<<3
	if cause {
		v |= v3PackCause
	}
	return v
}

// outOfRangeFrames are frames that differ from a valid one in a single
// value, which the Event field it is for cannot hold, or in a bit the
// layout keeps zero.
func outOfRangeFrames() []struct {
	name  string
	frame []byte
} {
	bad := func(name string, change func(*rawEvent)) struct {
		name  string
		frame []byte
	} {
		return struct {
			name  string
			frame []byte
		}{name, stallEvent(change).frame()}
	}
	transition := func(from, to telephony.RAT, fromLevel, toLevel telephony.SignalLevel) func(*rawEvent) {
		return func(r *rawEvent) {
			r.transition = binary.LittleEndian.AppendUint16(nil, packedTransition(from, to, fromLevel, toLevel))
		}
	}
	// arrive makes the transition one byte, FromRAT | FromLevel<<3, that
	// arrives at the event's RAT and level.
	arrive := func(b byte) func(*rawEvent) {
		return func(r *rawEvent) { r.head |= v3EvArrive; r.transition = []byte{b} }
	}
	seconds := func(s uint64) func(*rawEvent) {
		return func(r *rawEvent) { r.head |= v3EvSeconds; r.dur = binary.AppendUvarint(nil, s) }
	}
	return []struct {
		name  string
		frame []byte
	}{
		bad("model id past uint16", func(r *rawEvent) { r.model = 1 << 16 }),
		bad("negative model id", func(r *rawEvent) { r.model = -1 }),
		bad("android version past uint8", func(r *rawEvent) { r.av = 256 }),
		bad("ops executed past uint8", func(r *rawEvent) { r.ops = 256 }),
		bad("APN past uint8", func(r *rawEvent) { r.apn5G = 1 << 9 }),
		bad("packed byte's top bit", func(r *rawEvent) { r.packed |= v3PackZero }),
		bad("zero whole seconds", seconds(0)),
		bad("whole seconds past int64", seconds(v3MaxSeconds+1)),
		bad("undefined transition RAT", transition(telephony.RAT5G+1, 1, 0, 0)),
		bad("undefined transition level", transition(1, 2, 0, telephony.NumSignalLevels)),
		bad("transition past 12 bits", func(r *rawEvent) { r.transition[1] |= 1 << 4 }),
		bad("arriving transition from an undefined RAT", arrive(byte(telephony.RAT5G+1))),
		bad("arriving transition past 6 bits", arrive(1<<6)),
		bad("arrives-here without a transition", func(r *rawEvent) { r.head = r.head&^v3EvTransition | v3EvArrive; r.transition = nil }),
		bad("transition arriving at an undefined RAT", func(r *rawEvent) {
			arrive(0)(r)
			r.station = []byte{0, 0, 0, 0, v3CellWide, 0, byte(telephony.RAT5G + 1)}
		}),
		bad("wide station byte's low bits", func(r *rawEvent) { r.station = []byte{0, 0, 0, 0, v3CellWide | 1, 9, 9} }),
		bad("LAC past uint32", func(r *rawEvent) { r.station = append(binary.AppendUvarint(nil, 1<<34), 0, 0, 0, 0) }),
		bad("MCC past uint16", func(r *rawEvent) { r.station = append(binary.AppendUvarint([]byte{0}, 1<<16), 0, 0, 0) }),
		bad("CID past uint32", func(r *rawEvent) { r.station = append(binary.AppendUvarint([]byte{0, 0, 0}, 1<<32), 0) }),
		bad("first cell claims the same network", func(r *rawEvent) { r.station = []byte{v3CellSamePLMN, 0, 0} }),
	}
}

// packedTransition packs a transition's four fields, which must fit their
// 3 bits, as a record carries it.
func packedTransition(from, to telephony.RAT, fromLevel, toLevel telephony.SignalLevel) uint16 {
	return uint16(from) | uint16(to)<<3 | uint16(fromLevel)<<6 | uint16(toLevel)<<9
}

// gzippedFrame re-wraps a frame as an older encoder wrote a large one:
// flags 0x01 and a gzip'd body. Every reader refuses it now.
func gzippedFrame(t testing.TB, frame []byte) []byte {
	t.Helper()
	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	zw.Write(frame[v3HeaderLen:])
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	out := []byte{versionV3, 0x01, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(out[2:], uint32(body.Len()))
	return append(out, body.Bytes()...)
}

// olderFrame re-tags a frame with an older build's tag, from
// versionV3First (0xA3), the layout before the same-context bit, up to
// 0xA5, the one before stations and whole seconds. Every reader refuses
// them all.
func olderFrame(frame []byte, tag byte) []byte {
	out := append([]byte(nil), frame...)
	out[0] = tag
	return out
}

// olderTags are the tags of the record layouts before this one.
func olderTags() []byte {
	var tags []byte
	for tag := byte(versionV3First); tag < versionV3; tag++ {
		tags = append(tags, tag)
	}
	return tags
}

// TestSegmentHoldsTheReceivedBytes pins what "verbatim" promises (I6): for
// a canonical frame, a large one and a valid but non-canonical one, the
// segment file holds exactly the bytes the client wrote, and replay
// returns a batch equal to the one admitted.
func TestSegmentHoldsTheReceivedBytes(t *testing.T) {
	canonical, err := AppendBatchV3(nil, &Batch{DeviceID: 3, Seq: 1, Events: sampleEvents(20)})
	if err != nil {
		t.Fatal(err)
	}
	large, err := AppendBatchV3(nil, &Batch{DeviceID: 4, Seq: 2, Events: sampleEvents(4000)})
	if err != nil {
		t.Fatal(err)
	}
	odd := nonCanonicalFrame()
	if again, err := AppendBatchV3(nil, decodeFrame(t, odd)); err != nil || bytes.Equal(again, odd) {
		t.Fatalf("hand-built frame is canonical after all (err %v); the non-canonical row tests nothing", err)
	}
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"canonical", canonical},
		{"large", large},
		{"non-canonical", odd},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := decodeFrame(t, tc.frame)
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
			conn, err := net.Dial("tcp", col.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if kind, seq := sendFrame(t, conn, tc.frame); kind != batchAck || seq != want.Seq {
				t.Fatalf("reply kind 0x%02x seq %d, want ack of seq %d", kind, seq, want.Seq)
			}
			if !reflect.DeepEqual(ds.Events(), want.Events) {
				t.Fatal("dataset events differ from the frame's")
			}
			col.Close()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if got := segmentFileBytes(t, dir); !bytes.Equal(got, tc.frame) {
				t.Fatalf("segment holds %d bytes that differ from the %d received", len(got), len(tc.frame))
			}
			var replayed []*Batch
			st2, err := OpenSegStore(dir, SegStoreOptions{ReadOnly: true}, func(b *Batch) { replayed = append(replayed, b) })
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if !reflect.DeepEqual(replayed, []*Batch{want}) {
				t.Fatalf("replay returned %d batches, not the one admitted", len(replayed))
			}
		})
	}
}

// TestAdmitSharesTheDecodedSlice admits frames from several connections
// while one goroutine iterates the dataset and another — standing in for
// the streaming applier — reads every slice OnAdmit handed over. Under
// -race this proves the shared slices are only ever read; afterwards each
// hook slice must be a dataset segment (same backing array, so no copy
// was made), and hook, dataset and sent multisets must agree (I4/I5).
func TestAdmitSharesTheDecodedSlice(t *testing.T) {
	const conns, perConn, perFrame = 4, 24, 64
	st, err := OpenSegStore(t.TempDir(), SegStoreOptions{SegmentSize: 64 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds := NewDataset()
	// Sized to every frame sent, so the hook never blocks the serve loop.
	admitted := make(chan []failure.Event, conns*perConn)
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{
		Store:   st,
		OnAdmit: func(events []failure.Event) { admitted <- events },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	var readers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(2)
	go func() { // a batch pass beside ingest
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ds.Each(func(e *failure.Event) { _ = e.Duration + e.Start })
			}
		}
	}()
	var hookDigest Digest
	var hookSlices [][]failure.Event
	go func() { // the applier
		defer readers.Done()
		for events := range admitted {
			for i := range events {
				hookDigest.Add(EventDigest(&events[i]))
			}
			hookSlices = append(hookSlices, events)
		}
	}()

	var want Digest
	frames := make([][][]byte, conns)
	for c := range frames {
		for s := 1; s <= perConn; s++ {
			events := sampleEvents(perFrame)
			for i := range events {
				events[i].DeviceID = uint64(c)
				events[i].Start += time.Duration(s) * time.Hour
				want.Add(EventDigest(&events[i]))
			}
			frame, err := AppendBatchV3(nil, &Batch{DeviceID: uint64(c), Seq: uint64(s), Events: events})
			if err != nil {
				t.Fatal(err)
			}
			frames[c] = append(frames[c], frame)
		}
	}
	var senders sync.WaitGroup
	for c := range frames {
		senders.Add(1)
		go func(c int) {
			defer senders.Done()
			conn, err := net.Dial("tcp", col.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(20 * time.Second))
			for _, frame := range frames[c] {
				if _, err := conn.Write(frame); err != nil {
					t.Error(err)
					return
				}
				if kind, _, _, err := readReply(conn, new(replyBuf)); err != nil || kind != batchAck {
					t.Errorf("conn %d: reply kind 0x%02x, err %v", c, kind, err)
					return
				}
			}
		}(c)
	}
	senders.Wait()
	if err := col.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	close(admitted)
	close(stop)
	readers.Wait()

	if len(hookSlices) != conns*perConn {
		t.Fatalf("OnAdmit saw %d batches, want %d", len(hookSlices), conns*perConn)
	}
	segLen := make(map[*failure.Event]int)
	for _, seg := range ds.snapshot() {
		segLen[&seg[0]] = len(seg)
	}
	for _, events := range hookSlices {
		if segLen[&events[0]] != len(events) {
			t.Fatal("a slice OnAdmit received is not a dataset segment: the admit path copied it")
		}
	}
	if got := ds.MultisetDigest(); got != want || hookDigest != want {
		t.Fatalf("dataset %s, hook %s, sent %s", got, hookDigest, want)
	}
}

// TestAdmitAllocatesOneEventSlicePerFrame bounds the admit path's
// allocation: 512-event uncompressed frames through a store-backed
// collector cost one dataset block per two frames, exactly the frame's
// 36 864 B of events, plus small change (the dataset's segment list) — no
// second event slice for the dataset, no re-encoded frame for the store,
// and no page rounding. With an event slice of its own per frame it read
// 41 014 B: the slice's 40 960 B span.
func TestAdmitAllocatesOneEventSlicePerFrame(t *testing.T) {
	const perFrame, timed = 512, 64
	frames := make([][]byte, timed+1)
	for s := range frames {
		frame, err := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: uint64(s + 1), Events: sampleEvents(perFrame)})
		if err != nil {
			t.Fatal(err)
		}
		if frame[1] != 0 {
			t.Fatal("512-event frame is compressed; the bound is for the uncompressed path")
		}
		frames[s] = frame
	}
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
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	var reply [replyLen]byte
	admit := func(frame []byte) {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply[:]); err != nil || reply[0] != batchAck {
			t.Fatalf("reply kind 0x%02x, err %v", reply[0], err)
		}
	}
	admit(frames[0]) // the connection's frame buffer and the pools fill here
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, frame := range frames[1:] {
		admit(frame)
	}
	runtime.ReadMemStats(&after)
	if ds.Len() != len(frames)*perFrame {
		t.Fatalf("dataset has %d events, want %d", ds.Len(), len(frames)*perFrame)
	}
	if perFrame*2 != blockEvents {
		t.Fatal("the bound assumes two frames fill a block")
	}
	slice := uint64(perFrame) * uint64(unsafe.Sizeof(failure.Event{}))
	if got := (after.TotalAlloc - before.TotalAlloc) / timed; got > slice+256 {
		t.Fatalf("admit allocated %d B per frame; half a dataset block is %d B, so something copied or rounded the events", got, slice)
	}
}

// TestConnectionCycleAllocs pins what a dial → one 16-event frame → ack →
// close cycle costs the collector beyond what it costs ackSink (the
// client's dial and the server's accept, which follow the Go release).
// The collector recycles each connection's read state (reader, frame
// buffer, header, reply buffer) and decodes into the tail the previous
// connection handed back: 1 more measured, against 7 with per-connection
// state and an event slice per frame.
func TestConnectionCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled state at random")
	}
	const runs = 200
	col, err := NewCollectorWith("127.0.0.1:0", NewDataset(), CollectorOptions{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	frames := make([][]byte, 2*runs+4)
	for s := range frames {
		events := sampleEvents(16)
		for i := range events {
			events[i].DeviceID = 1
		}
		if frames[s], err = AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: uint64(s + 1), Events: events}); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	var reply [replyLen]byte
	cycle := func(addr string) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
		if _, err := io.ReadFull(conn, reply[:]); err != nil || reply[0] != batchAck {
			t.Fatalf("reply kind 0x%02x, err %v", reply[0], err)
		}
	}
	sink := ackSink(t)
	cycle(sink)
	cycle(col.Addr()) // the pools fill here
	base := testing.AllocsPerRun(runs, func() { cycle(sink) })
	got := testing.AllocsPerRun(runs, func() { cycle(col.Addr()) })
	if got-base > 2 {
		t.Errorf("a dial → frame → close cycle allocates %v objects, %v more than against ackSink; want at most 2 more (1 measured)", got, got-base)
	}
}
