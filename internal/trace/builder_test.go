package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/failure"
	"repro/internal/telephony"
)

// sealPending seals up's pending batch and returns the frame it sealed to.
func sealPending(t *testing.T, up *Uploader) []byte {
	t.Helper()
	up.mu.Lock()
	defer up.mu.Unlock()
	if err := up.sealLocked(); err != nil {
		t.Fatal(err)
	}
	return up.sealed[len(up.sealed)-1].frame
}

// SealAcked seals up's pending batch and acks its frame at once, as a
// flush that reached a collector does: the frame leaves the sealed backlog
// and its buffer is parked for the next seal. BenchmarkEncodeV3 seals
// through it with no collector.
func SealAcked(up *Uploader) {
	up.mu.Lock()
	defer up.mu.Unlock()
	if err := up.sealLocked(); err != nil || len(up.sealed) != 1 {
		panic(fmt.Sprintf("seal: %v, %d sealed frames", err, len(up.sealed)))
	}
	f := up.sealed[0]
	up.popSealedLocked()
	up.pending.frame = f.frame[:0]
}

// distinctCells gives event i cell i, so every event grows the table.
func distinctCells(events []failure.Event) []failure.Event {
	for i := range events {
		events[i].Cell = telephony.CellIdentity{MCC: 460, LAC: 7, CID: uint32(1000 + i)}
	}
	return events
}

// TestSealedFrameIsAppendBatchV3: an uploader that encodes each event as it
// is recorded seals exactly the frame AppendBatchV3 writes for the same
// batch, over every table regime and a large frame, and its second batch
// starts from clean tables and from the uploader's DeviceID again.
//
// ci/verify.sh's race stage runs it 20 times under -race, with the
// uploader's other recycling tests: a frame built event by event must seal
// to AppendBatchV3's bytes on every run.
func TestSealedFrameIsAppendBatchV3(t *testing.T) {
	manyTables := sampleEvents(17)
	for i := range manyTables {
		manyTables[i].APN = telephony.APN(i % telephony.NumAPNs)
		manyTables[i].Cell = telephony.CellIdentity{MCC: 460, LAC: 9, CID: uint32(100 + i)}
	}
	cases := []struct {
		name   string
		events []failure.Event
	}{
		{"single", sampleEvents(1)},
		{"phone", richEvents(16, 0)},
		{"gnarly", gnarlyEvents()},                                         // every optional field, extreme values
		{"past-first-index", distinctCells(sampleEvents(3 * v3CellSlots))}, // the cell index doubles three times
		{"heap-tables", manyTables},                                        // more cells than the decoder's stack table
		{"large", distinctCells(sampleEvents(2000))},                       // a shard-sized payload
		{"large-repeated-cells", append(sampleEvents(1500), sampleEvents(1500)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			up := NewUploader("127.0.0.1:1", 7)
			second := slices.Clone(tc.events)
			slices.Reverse(second)
			for seq, events := range [][]failure.Event{tc.events, second} {
				for _, e := range events {
					up.Record(e)
				}
				frame := sealPending(t, up)
				want, err := AppendBatchV3(nil, &Batch{DeviceID: 7, Seq: uint64(seq + 1), Events: events})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(frame, want) {
					t.Fatalf("batch %d: sealed %d B, AppendBatchV3 writes %d B, and they differ", seq+1, len(frame), len(want))
				}
				if got := decodeFrame(t, frame); got.DeviceID != 7 || got.Seq != uint64(seq+1) || !reflect.DeepEqual(got.Events, events) {
					t.Fatalf("batch %d does not round-trip", seq+1)
				}
				if frame[1] != 0 {
					t.Fatalf("batch %d: flags 0x%02x, want 0", seq+1, frame[1])
				}
			}
		})
	}
}

// TestWarmUploaderAllocatesNothing: once its pending batch, frame buffer
// and connection exist, an uploader records and flushes a phone frame
// without allocating: Record encodes into the pending batch, and the seal
// writes into the last acked frame's buffer.
func TestWarmUploaderAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled encoders at random")
	}
	up := NewUploader(ackSink(t), 1)
	defer up.Close()
	up.SetWiFi(true)
	events := richEvents(16, 0)
	frame := func() {
		for i := range events {
			up.Record(events[i])
		}
		if err := up.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		frame()
	}
	if got := testing.AllocsPerRun(100, frame); got != 0 {
		t.Errorf("a warm uploader's 16 Records and Flush allocate %v objects, want 0", got)
	}
}
