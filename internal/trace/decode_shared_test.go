package trace

import (
	"bufio"
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/telephony"
)

// phoneFrame is the collector's common case: 16 events of one device on
// one APN, camped on three cells, two of them just after a RAT transition.
func phoneFrame(t testing.TB, apn telephony.APN) []byte {
	t.Helper()
	events := make([]failure.Event, 16)
	for i := range events {
		events[i] = failure.Event{
			Kind:     failure.Kind(i % 3),
			DeviceID: 77,
			ModelID:  12,
			Cell:     telephony.CellIdentity{MCC: 460, LAC: 4301, CID: uint32(190211 + i%3)},
			RAT:      telephony.RAT4G,
			Level:    telephony.SignalLevel(i % 6),
			APN:      apn,
			Start:    time.Duration(i) * time.Minute,
			Duration: time.Duration(10+i) * time.Second,
		}
	}
	events[3].Transition = &failure.TransitionInfo{FromRAT: telephony.RAT4G, ToRAT: telephony.RAT5G, FromLevel: 4}
	events[9].Transition = &failure.TransitionInfo{FromRAT: telephony.RAT5G, ToRAT: telephony.RAT4G, ToLevel: 3}
	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 77, Seq: 3, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// manyTablesFrame carries five APNs and seventeen cells: one past what the
// decoder keeps on its stack, in each table.
func manyTablesFrame(t testing.TB) []byte {
	t.Helper()
	apns := []telephony.APN{"default", "ims", "cmnet", "3gnet", "ctlte"}
	events := sampleEvents(17)
	for i := range events {
		events[i].APN = apns[i%len(apns)]
		events[i].Cell = telephony.CellIdentity{MCC: 460, LAC: 9, CID: uint32(100 + i)}
	}
	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 8, Seq: 1, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// outOfTableFrame carries transitions whose bytes name no defined RAT or
// signal level; the decoder lets them through, as it does any enum byte.
func outOfTableFrame(t testing.TB) []byte {
	t.Helper()
	events := sampleEvents(4)
	events[0].Transition = &failure.TransitionInfo{FromRAT: 200, ToRAT: telephony.RAT4G, FromLevel: 1, ToLevel: 2}
	events[2].Transition = &failure.TransitionInfo{FromRAT: telephony.RAT3G, ToRAT: telephony.RAT4G, FromLevel: 9, ToLevel: 2}
	events[3].Transition = &failure.TransitionInfo{FromRAT: 200, ToRAT: telephony.RAT4G, FromLevel: 1, ToLevel: 2}
	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 9, Seq: 1, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestDecodeSmallFrameAllocs pins what a phone-sized frame costs to read:
// the frame header, the batch and its events. The intern tables stay on
// the stack, a well-known APN is the constant, the transitions are shared.
// An APN the decoder has no constant for costs its string, once per frame.
func TestDecodeSmallFrameAllocs(t *testing.T) {
	for _, tc := range []struct {
		apn  telephony.APN
		most float64
	}{
		{telephony.APNDefault, 3},
		{"cmnet", 4},
	} {
		frame := phoneFrame(t, tc.apn)
		src := bytes.NewReader(nil)
		br := bufio.NewReader(src)
		var buf []byte
		got := testing.AllocsPerRun(200, func() {
			src.Reset(frame)
			br.Reset(src)
			b, raw, err := ReadFrameRaw(br, buf)
			if err != nil || len(b.Events) != 16 {
				t.Fatalf("decode: %v", err)
			}
			buf = raw[:0]
		})
		if got > tc.most {
			t.Errorf("a 16-event frame on APN %q costs %.0f allocations to read, want <= %.0f", tc.apn, got, tc.most)
		}
	}
}

// checkTransitionTable fails if any shared TransitionInfo is not the value
// its index spells: something wrote through a decoded event's pointer.
func checkTransitionTable(t *testing.T) {
	t.Helper()
	for fr := range v3Transitions {
		for to := range v3Transitions[fr] {
			for fl := range v3Transitions[fr][to] {
				for tl := range v3Transitions[fr][to][fl] {
					want := failure.TransitionInfo{
						FromRAT: telephony.RAT(fr), ToRAT: telephony.RAT(to),
						FromLevel: telephony.SignalLevel(fl), ToLevel: telephony.SignalLevel(tl),
					}
					if got := v3Transitions[fr][to][fl][tl]; got != want {
						t.Fatalf("shared transition [%d][%d][%d][%d] = %+v", fr, to, fl, tl, got)
					}
				}
			}
		}
	}
}

// TestSharedTransitionsRoundTrip: sharing TransitionInfo values and APN
// constants between decoded events changes what a decode allocates and
// nothing else — not the decoded values, not the bytes they re-encode to,
// not their digests — and nothing downstream writes to what is shared.
func TestSharedTransitionsRoundTrip(t *testing.T) {
	// Every in-table combination, one event each, then the out-of-table ones.
	var all []failure.Event
	for fr := 0; fr < v3NumRATs; fr++ {
		for to := 0; to < v3NumRATs; to++ {
			for fl := 0; fl < telephony.NumSignalLevels; fl++ {
				for tl := 0; tl < telephony.NumSignalLevels; tl++ {
					e := sampleEvents(1)[0]
					e.DeviceID = uint64(len(all))
					e.APN = [4]telephony.APN{telephony.APNDefault, telephony.APNIMS, telephony.APNMMS, telephony.APNSUPL}[len(all)%4]
					e.Transition = &failure.TransitionInfo{
						FromRAT: telephony.RAT(fr), ToRAT: telephony.RAT(to),
						FromLevel: telephony.SignalLevel(fl), ToLevel: telephony.SignalLevel(tl),
					}
					all = append(all, e)
				}
			}
		}
	}
	if len(all) != 900 {
		t.Fatalf("%d in-table combinations, want 900", len(all))
	}
	inTable, err := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 1, Events: all})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"in-table", inTable},
		{"out-of-table", outOfTableFrame(t)},
		{"heap-tables", manyTablesFrame(t)},
		{"phone", phoneFrame(t, "cmnet")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, second := decodeFrame(t, tc.frame), decodeFrame(t, tc.frame)
			if !reflect.DeepEqual(first, second) {
				t.Fatal("two decodes of one frame differ")
			}
			again, err := AppendBatchV3(nil, first)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, tc.frame) {
				t.Fatal("re-encoding the decoded batch does not reproduce the frame")
			}
			for i := range first.Events {
				e := &first.Events[i]
				// The digest of a decoded event is the digest of the same
				// event built by hand, with a Transition of its own.
				own := *e
				if e.Transition != nil {
					tr := *e.Transition
					own.Transition = &tr
				}
				own.APN = telephony.APN(append([]byte(nil), e.APN...))
				if EventDigest(e) != EventDigest(&own) {
					t.Fatalf("event %d: digest depends on where its Transition or APN lives", i)
				}
				tr := e.Transition
				if tr == nil {
					continue
				}
				known := int(tr.FromRAT) < v3NumRATs && int(tr.ToRAT) < v3NumRATs && tr.FromLevel.Valid() && tr.ToLevel.Valid()
				shared := known && tr == &v3Transitions[tr.FromRAT][tr.ToRAT][tr.FromLevel][tr.ToLevel]
				if known != shared {
					t.Fatalf("event %d: transition %+v in table %v, shared %v", i, *tr, known, shared)
				}
				if !known && tr == second.Events[i].Transition {
					t.Fatalf("event %d: two decodes share an out-of-table transition", i)
				}
			}
		})
	}

	// The in-table frame decodes to the events it was built from.
	if got := decodeFrame(t, inTable); !reflect.DeepEqual(got.Events, all) {
		t.Fatal("the 900 in-table transitions do not round-trip")
	}
	if got := decodeFrame(t, outOfTableFrame(t)); got.Events[0].Transition.FromRAT != 200 || got.Events[2].Transition.FromLevel != 9 {
		t.Fatalf("out-of-table bytes changed in decoding: %+v, %+v", got.Events[0].Transition, got.Events[2].Transition)
	}

	// Readers of shared values beside each other (meaningful under -race):
	// two goroutines decode and digest the same frames.
	var wg sync.WaitGroup
	sums := make([]Digest, 2)
	frames := [][]byte{inTable, outOfTableFrame(t), manyTablesFrame(t)}
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, frame := range frames {
				b, _, err := ReadFrameRaw(bufio.NewReader(bytes.NewReader(frame)), nil)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range b.Events {
					sums[g].Add(EventDigest(&b.Events[i]))
				}
			}
		}()
	}
	wg.Wait()
	if sums[0] != sums[1] || sums[0].IsZero() {
		t.Errorf("concurrent decodes digest to %v and %v", sums[0], sums[1])
	}

	// A relay hands decoded events to an Uploader, which clears its buffer
	// on the ack: that drops the events' pointers and must not write
	// through them.
	sink := newFrameSink(t, nil)
	up := NewUploader(sink.ln.Addr().String(), 7)
	defer up.Close()
	up.SetWiFi(true)
	up.FlushThreshold = 1 << 20
	relayed := decodeFrame(t, inTable).Events
	for _, e := range relayed {
		up.Record(e)
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	up.mu.Lock()
	spare := up.spare[:cap(up.spare)]
	up.mu.Unlock()
	if len(spare) < len(relayed) || spare[0].Transition != nil {
		t.Fatalf("the acked batch was not recycled and cleared (%d-event spare)", len(spare))
	}
	if got := decodeFrame(t, sink.received()[0]); !reflect.DeepEqual(got.Events, all) {
		t.Fatal("relayed events arrived changed")
	}
	checkTransitionTable(t)
}
