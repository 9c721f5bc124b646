package trace

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

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
		{"heap-tables", manyTables},                                        // more APNs and cells than the decoder's stack tables
		{"large", distinctCells(sampleEvents(2000))},                       // a shard-sized payload
		{"large-repeated-cells", append(sampleEvents(1500), sampleEvents(1500)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			up := NewUploader("127.0.0.1:1", 7)
			up.FlushThreshold = 1 << 30
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

// TestDropOldestKeepsTheSurvivors: without a spill WAL, BufferLimit drops
// the oldest events exactly as a list of events would — whole sealed
// frames first, then the oldest of the pending batch — with the same
// Pending and Dropped counts, and the pending batch then seals to the
// frame AppendBatchV3 writes for exactly the survivors. Every event names
// a new cell, so the cell table outgrows twice the survivors again and
// again and is rebuilt each time.
func TestDropOldestKeepsTheSurvivors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	const limit = 12
	up := NewUploader(dead, 7)
	defer up.Close()
	up.BufferLimit = limit
	up.FlushThreshold = 1 << 30
	up.SetBackoff(time.Hour, time.Hour, nil)

	events := distinctCells(gnarlyEvents())
	// The list model: what the cap keeps of a sealed frame and the
	// pending batch, and how many events it dropped.
	var sealedModel, pendingModel []failure.Event
	var droppedModel int64
	record := func(e failure.Event) {
		up.Record(e)
		pendingModel = append(pendingModel, e)
		if total := len(sealedModel) + len(pendingModel); total > limit {
			if len(sealedModel) > 0 {
				droppedModel += int64(len(sealedModel))
				total -= len(sealedModel)
				sealedModel = nil
			}
			if over := total - limit; over > 0 {
				pendingModel = pendingModel[over:]
				droppedModel += int64(over)
			}
		}
		up.mu.Lock()
		n, cells := up.pending.n, len(up.pending.cells)
		up.mu.Unlock()
		if n != len(pendingModel) || cells > 2*n+reindexSlack {
			t.Fatalf("pending batch holds %d events and %d cells; want %d events and at most %d cells", n, cells, len(pendingModel), 2*n+reindexSlack)
		}
		if up.Pending() != len(sealedModel)+len(pendingModel) || up.Dropped() != droppedModel {
			t.Fatalf("Pending %d, Dropped %d; want %d, %d", up.Pending(), up.Dropped(), len(sealedModel)+len(pendingModel), droppedModel)
		}
	}
	for _, e := range events[:7] {
		record(e)
	}
	// A failed flush seals the first seven into a frame the cap drops
	// whole.
	up.SetWiFi(true)
	if err := up.Flush(); err == nil {
		t.Fatal("Flush to an unreachable collector succeeded")
	}
	up.SetWiFi(false)
	sealedModel, pendingModel = pendingModel, nil
	for _, e := range events[7:] {
		record(e)
	}
	sealed := sealPending(t, up)
	if got := decodeFrame(t, sealed); !reflect.DeepEqual(got.Events, pendingModel) {
		t.Fatalf("the trimmed batch decodes to %d events, not the %d survivors", len(got.Events), len(pendingModel))
	}
	if want, err := AppendBatchV3(nil, &Batch{DeviceID: 7, Seq: 2, Events: pendingModel}); err != nil || !bytes.Equal(sealed, want) {
		t.Fatalf("the trimmed batch is not the frame AppendBatchV3 writes for its survivors (%v)", err)
	}
}

// TestTrimmedBatchTables: a trim leaves table entries only dropped events
// used until the cell table outnumbers twice the survivors, and then
// rebuilds them at once; a seal rebuilds whatever is left stale, so a
// trimmed batch seals to exactly the frame AppendBatchV3 writes for its
// survivors.
func TestTrimmedBatchTables(t *testing.T) {
	events := distinctCells(gnarlyEvents()[:40])
	enc := v3EncPool.New().(*v3Enc)
	enc.reset(7)
	for i := range events {
		enc.appendEvent(&events[i])
	}
	sealsTo := func(survivors []failure.Event) {
		t.Helper()
		got, err := enc.seal(nil, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := AppendBatchV3(nil, &Batch{DeviceID: 7, Seq: 1, Events: survivors})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("the trimmed batch seals to %d B, AppendBatchV3 of its %d survivors to %d B", len(got), len(survivors), len(want))
		}
	}
	enc.dropOldest(2, 7)
	if len(enc.cells) != len(events) {
		t.Fatalf("a two-event trim rebuilt the table: %d cells", len(enc.cells))
	}
	sealsTo(events[2:])
	enc.dropOldest(25, 7) // 13 survivors of 38 cells: past 2*13+reindexSlack
	if len(enc.cells) != 13 {
		t.Fatalf("the trim past the bound left %d cells for 13 survivors", len(enc.cells))
	}
	sealsTo(events[27:])
	enc.dropOldest(13, 7)
	if enc.n != 0 || len(enc.events) != 0 || len(enc.cells) != 0 {
		t.Fatal("dropping every event left a non-empty batch")
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
	up.FlushThreshold = 1 << 30
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
