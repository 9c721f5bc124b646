package trace

import (
	"bufio"
	"bytes"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/telephony"
)

// dirtyEvent has every field set, optional ones included, to values no
// decoded test frame holds: what a discarded frame may leave in a tail.
func dirtyEvent() failure.Event {
	return failure.Event{
		DeviceID: 1 << 60, Start: time.Hour, Duration: time.Minute, AutoFixTime: time.Second,
		Cell:  telephony.CellIdentity{MCC: 999, MNC: 99, LAC: 7, CID: 7, CDMA: true},
		Cause: telephony.FailCause(77), ModelID: 60000, Kind: failure.Kind(2), AndroidVersion: 200,
		ISP: 2, Region: 1, RAT: telephony.RAT5G, Level: telephony.Level4, APN: telephony.APNMMS,
		ResolvedBy: android.ResolvedBy(3), OpsExecuted: 9, FiveGCapable: true, DenseBS: true,
		HasTransition: true, Transition: failure.TransitionInfo{FromRAT: telephony.RAT5G, ToRAT: telephony.RAT5G, FromLevel: 4, ToLevel: 4},
	}
}

// dirtyTail returns an empty slice with room for n events, every slot of
// which holds dirtyEvent.
func dirtyTail(n int) []failure.Event {
	t := make([]failure.Event, n)
	for i := range t {
		t[i] = dirtyEvent()
	}
	return t[:0]
}

// blockFrames are frames that exercise every optional field, on and off,
// in the shapes the collector decodes.
func blockFrames(t testing.TB) map[string][]byte {
	t.Helper()
	optional := richEvents(16, 0)
	for i := range optional {
		optional[i].ResolvedBy = android.ResolvedBy(1 + i%2)
		optional[i].OpsExecuted = uint8(i)
		optional[i].AutoFixTime = time.Duration(i) * time.Second
		optional[i].FiveGCapable = i%2 == 0
		optional[i].DenseBS = i%3 == 0
	}
	mixed := append(sampleEvents(8), optional[:8]...)
	for i := range mixed {
		mixed[i].DeviceID = 5
	}
	manyCells := sampleEvents(64)
	for i := range manyCells {
		manyCells[i].Cell.CID = uint32(i)
	}
	frames := map[string][]byte{}
	for name, b := range map[string]*Batch{
		"plain":                {DeviceID: 1, Seq: 1, Events: sampleEvents(16)},
		"every optional":       {DeviceID: 2, Seq: 2, Events: optional},
		"optional then plain":  {DeviceID: 5, Seq: 3, Events: mixed},
		"empty":                {DeviceID: 6, Seq: 4},
		"cells past the stack": {DeviceID: 7, Seq: 5, Events: manyCells},
		"large":                {DeviceID: 8, Seq: 6, Events: sampleEvents(2000)},
	} {
		frame, err := AppendBatchV3(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		frames[name] = frame
	}
	return frames
}

// decodeInto decodes one frame into b, offering b.Events' capacity.
func decodeInto(t *testing.T, frame []byte, b *Batch) {
	t.Helper()
	if _, err := ReadFrameRaw(bufio.NewReader(bytes.NewReader(frame)), nil, b); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeIntoADirtyTail: a frame decoded into offered capacity that
// still holds another frame's events gives the events a fresh decode
// gives, optional fields included, and lands in that capacity. Capacity
// that is too small, or a non-empty Events, is not written.
//
// ci/verify.sh's race stage runs it 20 times under -race, with the other
// dataset-block tests: a decode into a shared block's dirty tail must never
// write a published event.
func TestDecodeIntoADirtyTail(t *testing.T) {
	for name, frame := range blockFrames(t) {
		t.Run(name, func(t *testing.T) {
			var fresh Batch
			decodeInto(t, frame, &fresh)
			n := len(fresh.Events)

			tail := dirtyTail(n + 3)
			got := Batch{Events: tail}
			decodeInto(t, frame, &got)
			if !reflect.DeepEqual(got, fresh) {
				t.Fatalf("decoded into a dirty tail:\n got %+v\nwant %+v", got.Events, fresh.Events)
			}
			if n > 0 && &got.Events[0] != &tail[:1][0] {
				t.Fatal("the events did not land in the offered capacity")
			}
			if rest := tail[n : n+3]; rest[0] != dirtyEvent() || rest[2] != dirtyEvent() {
				t.Fatal("the decoder wrote past the frame's events")
			}
			if n == 0 {
				return
			}

			short := dirtyTail(n - 1)
			got = Batch{Events: short}
			decodeInto(t, frame, &got)
			if !reflect.DeepEqual(got, fresh) || short[:1][0] != dirtyEvent() {
				t.Fatal("a tail without room was written, or the frame decoded wrong beside it")
			}
			full := append(dirtyTail(n+1), dirtyEvent())
			got = Batch{Events: full}
			decodeInto(t, frame, &got)
			if !reflect.DeepEqual(got, fresh) || &got.Events[0] == &full[0] {
				t.Fatal("a non-empty Events was decoded into")
			}
		})
	}
}

// TestDuplicateAndMalformedFramesLeaveThePublishedBlock: one connection
// sends A, a duplicate of A, then a frame that turns malformed at its
// last event. Both later frames decode into the connection's tail right
// after A, neither is published: A's events, the dataset and what OnAdmit
// saw are unchanged, and the next connection overwrites that region.
//
// ci/verify.sh's race stage runs it 20 times under -race, with the other
// dataset-block tests: a decode into a shared block's dirty tail must never
// write a published event.
func TestDuplicateAndMalformedFramesLeaveThePublishedBlock(t *testing.T) {
	ds := NewDataset()
	var hooked [][]failure.Event
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{
		Store:   testStore(t),
		OnAdmit: func(events []failure.Event) { hooked = append(hooked, events) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	a := &Batch{DeviceID: 3, Seq: 1, Events: richEvents(16, 0)}
	for i := range a.Events {
		a.Events[i].DeviceID = 3
	}
	frameA, err := AppendBatchV3(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	b := &Batch{DeviceID: 3, Seq: 2, Events: richEvents(16, 16)}
	for i := range b.Events {
		b.Events[i].DeviceID = 3
	}
	frameB, err := AppendBatchV3(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	// The last event's transition closes the payload: an undefined
	// FromRAT there fails the frame after 15 events were decoded.
	bad := append([]byte(nil), frameB...)
	bad[len(bad)-2] |= 7

	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if kind, _ := sendFrame(t, conn, frameA); kind != batchAck {
		t.Fatalf("A: reply 0x%02x", kind)
	}
	want := ds.MultisetDigest()
	seg := ds.snapshot()[0]
	if !reflect.DeepEqual(seg, a.Events) || cap(seg) != len(seg) {
		t.Fatal("A is not published as a capped slice of its events")
	}
	if kind, _ := sendFrame(t, conn, frameA); kind != batchAck {
		t.Fatalf("duplicate A: reply 0x%02x", kind)
	}
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, _ := conn.Read(make([]byte, 1)); n != 0 {
		t.Fatal("the malformed frame got a reply")
	}
	conn.Close()
	waitFor(t, func() bool {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		return len(ds.tails) == 1
	})
	if got := ds.MultisetDigest(); got != want || ds.Len() != 16 || !reflect.DeepEqual(seg, a.Events) {
		t.Fatalf("after a duplicate and a malformed frame: digest %s (want %s), %d events", got, want, ds.Len())
	}
	if len(hooked) != 1 || &hooked[0][0] != &seg[0] {
		t.Fatalf("OnAdmit saw %d batches, want A alone", len(hooked))
	}

	conn, err = net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if kind, _ := sendFrame(t, conn, frameB); kind != batchAck {
		t.Fatalf("B: reply 0x%02x", kind)
	}
	segs := ds.snapshot()
	if len(segs) != 2 || spanOf(segs[1]).lo != spanOf(seg).hi {
		t.Fatal("B did not land in the tail A's connection handed back")
	}
	if !reflect.DeepEqual(segs[0], a.Events) || !reflect.DeepEqual(segs[1], b.Events) {
		t.Fatal("A or B changed once B overwrote the discarded region")
	}
}

// eventSpan is the memory one published slice covers.
type eventSpan struct{ lo, hi uintptr }

func spanOf(events []failure.Event) eventSpan {
	lo := uintptr(unsafe.Pointer(&events[0]))
	return eventSpan{lo, lo + uintptr(len(events))*unsafe.Sizeof(failure.Event{})}
}

// TestFleetConnectionsFillSharedBlocksApart: two collectors on one dataset
// share its blocks. A tail one member's connection hands back is filled
// by the other's next connection, and four connections, two per member,
// admitting frames of mixed sizes at once while a reader walks the
// dataset publish slices that never overlap (under -race: no frame is
// written once it is visible) and hold exactly what was sent.
//
// ci/verify.sh's race stage runs it 20 times: one run samples few
// interleavings of the four connections and the reader.
func TestFleetConnectionsFillSharedBlocksApart(t *testing.T) {
	ds := NewDataset()
	var cols [2]*Collector
	for i := range cols {
		col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: testStore(t)})
		if err != nil {
			t.Fatal(err)
		}
		defer col.Close()
		cols[i] = col
	}
	send := func(col *Collector, device uint64, seqs []uint64, sizes []int) Digest {
		conn, err := net.Dial("tcp", col.Addr())
		if err != nil {
			t.Error(err)
			return Digest{}
		}
		defer conn.Close()
		var sent Digest
		for k, seq := range seqs {
			events := sampleEvents(sizes[k%len(sizes)])
			for i := range events {
				events[i].DeviceID = device
				events[i].Start += time.Duration(seq) * time.Hour
				sent.Add(EventDigest(&events[i]))
			}
			frame, err := AppendBatchV3(nil, &Batch{DeviceID: device, Seq: seq, Events: events})
			if err != nil {
				t.Error(err)
				return sent
			}
			if _, err := conn.Write(frame); err != nil {
				t.Error(err)
				return sent
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if kind, _, _, err := readReply(conn, new(replyBuf)); err != nil || kind != batchAck {
				t.Errorf("device %d seq %d: reply 0x%02x, %v", device, seq, kind, err)
				return sent
			}
		}
		return sent
	}
	tailsHandedBack := func(n int) {
		waitFor(t, func() bool {
			ds.mu.Lock()
			defer ds.mu.Unlock()
			return len(ds.tails) == n
		})
	}

	want := send(cols[0], 100, []uint64{1}, []int{16})
	tailsHandedBack(1)
	want.Add(send(cols[1], 101, []uint64{1}, []int{16}))
	tailsHandedBack(1)
	segs := ds.snapshot()
	if spanOf(segs[1]).lo != spanOf(segs[0]).hi {
		t.Fatal("the second member's connection did not fill the tail the first one's handed back")
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ds.Each(func(e *failure.Event) { _ = e.Start + e.Duration })
			}
		}
	}()
	var mu sync.Mutex
	var senders sync.WaitGroup
	for c := 0; c < 4; c++ {
		senders.Add(1)
		go func(c int) {
			defer senders.Done()
			seqs := make([]uint64, 40)
			for i := range seqs {
				seqs[i] = uint64(i + 2)
			}
			sent := send(cols[c%2], uint64(c), seqs, []int{16, 7, 300, 1, 64, 1500})
			mu.Lock()
			want.Add(sent)
			mu.Unlock()
		}(c)
	}
	senders.Wait()
	close(stop)
	reader.Wait()

	if got := ds.MultisetDigest(); got != want {
		t.Fatalf("dataset %s, sent %s", got, want)
	}
	var spans []eventSpan
	for _, seg := range ds.snapshot() {
		if cap(seg) != len(seg) {
			t.Fatal("a published slice is not capped")
		}
		spans = append(spans, spanOf(seg))
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("published slices overlap: [%#x, %#x) and [%#x, %#x)", spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
}
