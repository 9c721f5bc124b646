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
// one APN, camped on three cells, two of them just after a RAT transition
// (one of those the all-zero transition, which is still a transition).
func phoneFrame(t testing.TB) []byte {
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
			APN:      telephony.APNDefault,
			Start:    time.Duration(i) * time.Minute,
			Duration: time.Duration(10+i) * time.Second,
		}
	}
	events[3].HasTransition = true
	events[3].Transition = failure.TransitionInfo{FromRAT: telephony.RAT4G, ToRAT: telephony.RAT5G, FromLevel: 4}
	events[9].HasTransition = true
	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 77, Seq: 3, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// manyTablesFrame carries every APN there is and seventeen cells: one past
// the cell table the decoder keeps on its stack.
func manyTablesFrame(t testing.TB) []byte {
	t.Helper()
	events := sampleEvents(17)
	for i := range events {
		events[i].APN = telephony.APN(i % telephony.NumAPNs)
		events[i].Cell = telephony.CellIdentity{MCC: 460, LAC: 9, CID: uint32(100 + i)}
	}
	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 8, Seq: 1, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestDecodeSmallFrameAllocs pins what a phone-sized frame costs to read
// into a reused buffer and Batch: its events, nothing else. The cell
// table stays on the stack, and an event holds its APN and transition by
// value.
func TestDecodeSmallFrameAllocs(t *testing.T) {
	frame := phoneFrame(t)
	src := bytes.NewReader(nil)
	br := bufio.NewReader(src)
	var buf []byte
	var b Batch
	got := testing.AllocsPerRun(200, func() {
		src.Reset(frame)
		br.Reset(src)
		raw, err := ReadFrameRaw(br, buf, &b)
		if err != nil || len(b.Events) != 16 {
			t.Fatalf("decode: %v", err)
		}
		buf = raw[:0]
	})
	if got != 1 {
		t.Errorf("a 16-event frame costs %.0f allocations to read, want 1", got)
	}
}

// TestDecodedEventsRoundTrip: every transition an event can carry, the
// all-zero one included, and every APN byte decode to the events they were
// encoded from, re-encode to the same bytes and digest the same from two
// goroutines at once; decoded events relayed through an Uploader, which
// recycles their buffer on the ack, arrive unchanged.
//
// ci/verify.sh's race stage runs it 20 times: two goroutines decode and
// digest the same frames while a recycling uploader relays them.
func TestDecodedEventsRoundTrip(t *testing.T) {
	var all []failure.Event
	for fr := telephony.RATUnknown; fr <= telephony.RAT5G; fr++ {
		for to := telephony.RATUnknown; to <= telephony.RAT5G; to++ {
			for fl := telephony.Level0; fl < telephony.NumSignalLevels; fl++ {
				for tl := telephony.Level0; tl < telephony.NumSignalLevels; tl++ {
					e := sampleEvents(1)[0]
					e.DeviceID = uint64(len(all))
					e.APN = telephony.APN(len(all) % 256)
					e.HasTransition = true
					e.Transition = failure.TransitionInfo{FromRAT: fr, ToRAT: to, FromLevel: fl, ToLevel: tl}
					all = append(all, e)
				}
			}
		}
	}
	if len(all) != 900 {
		t.Fatalf("%d transitions, want 900", len(all))
	}
	everyTransition, err := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 1, Events: all})
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeFrame(t, everyTransition); !reflect.DeepEqual(got.Events, all) {
		t.Fatal("the 900 transitions do not round-trip")
	}

	frames := [][]byte{everyTransition, manyTablesFrame(t), phoneFrame(t)}
	for i, name := range []string{"every-transition", "heap-tables", "phone"} {
		frame := frames[i]
		t.Run(name, func(t *testing.T) {
			first, second := decodeFrame(t, frame), decodeFrame(t, frame)
			if !reflect.DeepEqual(first, second) {
				t.Fatal("two decodes of one frame differ")
			}
			again, err := AppendBatchV3(nil, first)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, frame) {
				t.Fatal("re-encoding the decoded batch does not reproduce the frame")
			}
		})
	}

	// Meaningful under -race: two goroutines decode and digest the same
	// frames.
	var wg sync.WaitGroup
	sums := make([]Digest, 2)
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, frame := range frames {
				b := new(Batch)
				_, err := ReadFrameRaw(bufio.NewReader(bytes.NewReader(frame)), nil, b)
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
	if sums[0] != sums[1] || sums[0] == (Digest{}) {
		t.Errorf("concurrent decodes digest to %v and %v", sums[0], sums[1])
	}

	// A relay hands decoded events to an Uploader, which parks the acked
	// frame's buffer for its next seal.
	sink := newFrameSink(t, nil)
	up := NewUploader(sink.ln.Addr().String(), 7)
	defer up.Close()
	up.SetWiFi(true)
	relayed := decodeFrame(t, everyTransition).Events
	for _, e := range relayed {
		up.Record(e)
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	sent := sink.received()[0]
	up.mu.Lock()
	recycled := cap(up.pending.frame)
	up.mu.Unlock()
	if recycled < len(sent) {
		t.Fatalf("the acked frame was not recycled (%d B parked for a %d B frame)", recycled, len(sent))
	}
	if got := decodeFrame(t, sent); !reflect.DeepEqual(got.Events, all) {
		t.Fatal("relayed events arrived changed")
	}
}
