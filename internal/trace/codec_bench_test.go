package trace_test

import (
	"bufio"
	"bytes"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// codecShape is one of the two frame shapes the ingest benchmark sends:
// 512-event slices of a fleet run in its device order (an uploader
// relaying a shard) and 16-event single-device frames (a phone's upload).
type codecShape struct {
	name     string
	batch    int
	byDevice bool
}

var codecShapes = []codecShape{{"bulk-512", 512, false}, {"phone-16", 16, true}}

var (
	codecOnce   sync.Once
	codecEvents []failure.Event
	codecErr    error
)

// codecBatches cuts one 800-device, 72-hour fleet run into frames of the
// shape, as the ingest benchmark's generator does.
func codecBatches(b testing.TB, s codecShape) []trace.Batch {
	b.Helper()
	codecOnce.Do(func() {
		res, err := fleet.Run(fleet.Scenario{Seed: 11, NumDevices: 800, Window: 72 * time.Hour, Workers: 2})
		if err != nil {
			codecErr = err
			return
		}
		codecEvents = res.Dataset.Events()
	})
	if codecErr != nil {
		b.Fatal(codecErr)
	}
	events := append([]failure.Event(nil), codecEvents...)
	if s.byDevice {
		sort.SliceStable(events, func(i, j int) bool { return events[i].DeviceID < events[j].DeviceID })
	}
	var out []trace.Batch
	for lo := 0; lo < len(events); {
		hi := min(lo+s.batch, len(events))
		for k := lo + 1; s.byDevice && k < hi; k++ {
			if events[k].DeviceID != events[lo].DeviceID {
				hi = k
			}
		}
		out = append(out, trace.Batch{DeviceID: uint64(1 + len(out)%4), Seq: uint64(1 + len(out)/4), Events: events[lo:hi:hi]})
		lo = hi
	}
	return out
}

// TestWireBytesPerEvent guards the frame layout's byte budget: the fleet
// run the codec benchmarks use, cut into the ingest benchmark's two frame
// shapes, costs at most 1 % more bytes an event than the layout that
// keeps a station's Region, RAT and DenseBS in the cell table, the APN and
// 5G in the device context, and whole-second Durations in seconds reached
// (the layouts before it: 19.083 and 21.422 B, 19.883 and 24.350 B, and
// 28.25 and 32.44 B).
func TestWireBytesPerEvent(t *testing.T) {
	budget := map[string]float64{"bulk-512": 17.153, "phone-16": 19.990}
	for _, s := range codecShapes {
		var bytes, events int
		var buf []byte
		for _, b := range codecBatches(t, s) {
			var err error
			if buf, err = trace.AppendBatchV3(buf[:0], &b); err != nil {
				t.Fatal(err)
			}
			bytes += len(buf)
			events += len(b.Events)
		}
		got := float64(bytes) / float64(events)
		t.Logf("%s frames cost %.3f B an event", s.name, got)
		if got > 1.01*budget[s.name] {
			t.Errorf("%s frames cost %.3f B an event, more than 1 %% above the %.3f B budget", s.name, got, budget[s.name])
		}
	}
}

// BenchmarkDecodeV3 reads frames through ReadFrameRaw into a reused
// buffer and Batch, and each frame's events into the offered capacity of
// one reused block, as the collector decodes into its block tail; one op
// is one frame.
func BenchmarkDecodeV3(b *testing.B) {
	for _, s := range codecShapes {
		b.Run(s.name, func(b *testing.B) {
			batches := codecBatches(b, s)
			frames := make([][]byte, len(batches))
			for i := range batches {
				var err error
				if frames[i], err = trace.AppendBatchV3(nil, &batches[i]); err != nil {
					b.Fatal(err)
				}
			}
			block := make([]failure.Event, 0, s.batch)
			src := bytes.NewReader(nil)
			br := bufio.NewReaderSize(src, 1<<16)
			var buf []byte
			var batch trace.Batch
			events := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reset(frames[i%len(frames)])
				br.Reset(src)
				batch.Events = block[:0]
				raw, err := trace.ReadFrameRaw(br, buf, &batch)
				if err != nil {
					b.Fatal(err)
				}
				buf = raw[:0]
				events += len(batch.Events)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}

// BenchmarkEncodeV3 appends frames into a reused buffer, as a store's
// Append does; one op is one frame. Its record case takes the bench
// generator's path instead: one Uploader.Record per event of a bulk
// frame, then a seal whose frame is acked at once, its buffer parked for
// the next seal.
func BenchmarkEncodeV3(b *testing.B) {
	for _, s := range codecShapes {
		b.Run(s.name, func(b *testing.B) {
			batches := codecBatches(b, s)
			var buf []byte
			events := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := &batches[i%len(batches)]
				var err error
				if buf, err = trace.AppendBatchV3(buf[:0], batch); err != nil {
					b.Fatal(err)
				}
				events += len(batch.Events)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
	b.Run("record", func(b *testing.B) {
		batches := codecBatches(b, codecShapes[0])
		up := trace.NewUploader("", 1)
		defer up.Close()
		events := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := &batches[i%len(batches)]
			for k := range batch.Events {
				up.Record(batch.Events[k])
			}
			trace.SealAcked(up)
			events += len(batch.Events)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	})
}
