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
	kind, seq, _, err := readReply(conn)
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
// emit: its cell table carries an entry no event references, and the
// event's model id is a two-byte varint where one byte would do.
func nonCanonicalFrame() []byte {
	p := binary.AppendUvarint(nil, 5) // DeviceID
	p = binary.AppendUvarint(p, 1)    // Seq
	p = append(p, 1, 3)               // one APN string, three bytes
	p = append(p, "ims"...)
	p = append(p, 2) // two cells, the first unused
	for _, cid := range []uint64{7, 9} {
		p = binary.AppendUvarint(p, 460)
		p = append(p, 0, 1)
		p = binary.AppendUvarint(p, cid)
		p = append(p, 0)
	}
	p = append(p, 1)                                      // one event
	p = append(p, byte(failure.DataStall), 0)             // kind, no optional fields
	p = append(p, 0)                                      // device delta
	p = append(p, 0x8A, 0x00)                             // model id 5 (zigzag 10), padded to two bytes
	p = append(p, 20)                                     // android version 10
	p = append(p, 1, 1)                                   // isp, cell index 1
	p = append(p, 0, byte(telephony.RAT4G), 3, 0)         // region, rat, level, apn index
	p = binary.AppendUvarint(p, zigzag(3))                // cause
	p = binary.AppendUvarint(p, zigzag(int64(time.Hour))) // start
	p = binary.AppendUvarint(p, zigzag(int64(12*time.Second)))
	frame := []byte{versionV3, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(frame[2:], uint32(len(p)))
	return append(frame, p...)
}

// oneEventFrame hand-assembles a well-formed frame of one stall event
// whose model id, Android version, operation count, APN name and four
// transition bytes are the caller's: the way to spell values no Event can
// hold, which no encoder of ours would emit.
func oneEventFrame(model, androidVersion, ops int64, apn string, transition [4]byte) []byte {
	p := []byte{5, 1} // DeviceID, Seq
	p = append(p, 1, byte(len(apn)))
	p = append(p, apn...)
	p = append(p, 1, 0, 0, 0, 0, 0) // one all-zero cell
	p = append(p, 1)                // one event
	p = append(p, byte(failure.DataStall), v3EvOps|v3EvTransition)
	p = append(p, 0) // device delta
	p = binary.AppendUvarint(p, zigzag(model))
	p = binary.AppendUvarint(p, zigzag(androidVersion))
	p = append(p, 1, 0)                           // isp, cell index
	p = append(p, 0, byte(telephony.RAT4G), 3, 0) // region, rat, level, apn index
	p = append(p, 0, 0, 0)                        // cause, start, duration
	p = binary.AppendUvarint(p, zigzag(ops))
	p = append(p, transition[:]...)
	frame := []byte{versionV3, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(frame[2:], uint32(len(p)))
	return append(frame, p...)
}

// outOfRangeFrames are frames that differ from a valid one in a single
// value, which the Event field it is for cannot hold.
func outOfRangeFrames() []struct {
	name  string
	frame []byte
} {
	ok := [4]byte{byte(telephony.RAT4G), byte(telephony.RAT5G), 5, 0}
	return []struct {
		name  string
		frame []byte
	}{
		{"model id past uint16", oneEventFrame(1<<16, 10, 1, "default", ok)},
		{"negative model id", oneEventFrame(-1, 10, 1, "default", ok)},
		{"android version past uint8", oneEventFrame(7, 256, 1, "default", ok)},
		{"ops executed past uint8", oneEventFrame(7, 10, 256, "default", ok)},
		{"undefined APN name", oneEventFrame(7, 10, 1, "cmnet", ok)},
		{"undefined transition RAT", oneEventFrame(7, 10, 1, "default", [4]byte{byte(telephony.RAT5G) + 1, 1, 0, 0})},
		{"undefined transition level", oneEventFrame(7, 10, 1, "default", [4]byte{1, 2, 0, telephony.NumSignalLevels})},
	}
}

// gzipSmallFrame re-wraps an uncompressed frame with a gzip'd body — valid,
// though the encoder never compresses a payload this small.
func gzipSmallFrame(t testing.TB, frame []byte) []byte {
	t.Helper()
	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	zw.Write(frame[v3HeaderLen:])
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	out := []byte{versionV3, v3FlagGzip, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(out[2:], uint32(body.Len()))
	return append(out, body.Bytes()...)
}

// TestSegmentHoldsTheReceivedBytes pins what "verbatim" promises (I6): for
// a canonical frame, a gzip'd one and a valid but non-canonical one, the
// segment file holds exactly the bytes the client wrote, and replay
// returns a batch equal to the one admitted.
func TestSegmentHoldsTheReceivedBytes(t *testing.T) {
	canonical, err := AppendBatchV3(nil, &Batch{DeviceID: 3, Seq: 1, Events: sampleEvents(20)})
	if err != nil {
		t.Fatal(err)
	}
	gzipped, err := AppendBatchV3(nil, &Batch{DeviceID: 4, Seq: 2, Events: sampleEvents(4000)})
	if err != nil {
		t.Fatal(err)
	}
	if gzipped[1]&v3FlagGzip == 0 {
		t.Fatal("4000-event frame was not compressed; the gzip row tests nothing")
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
		{"gzip", gzipped},
		{"non-canonical", odd},
		{"non-canonical gzip", gzipSmallFrame(t, odd)},
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
				if kind, _, _, err := readReply(conn); err != nil || kind != batchAck {
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
// allocation: one 512-event uncompressed frame through a store-backed
// collector costs the decoder's []failure.Event and small change — no
// second event slice for the dataset, no re-encoded frame for the store.
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
	slice := uint64(perFrame) * uint64(unsafe.Sizeof(failure.Event{}))
	if got := (after.TotalAlloc - before.TotalAlloc) / timed; got >= slice+slice/2 {
		t.Fatalf("admit allocated %d B per frame; one decoded event slice is %d B, so something copied the events", got, slice)
	}
}
