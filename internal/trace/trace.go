// Package trace implements the measurement data pipeline of Android-MOD:
// failure events are batched per device, compressed, and uploaded to a
// backend collector for centralized analysis (§2.2–2.3). Uploads are gated
// on WiFi connectivity to spare the (possibly failing) cellular link, and
// per-device network budgets are accounted so the <100 KB/month overhead
// claim can be checked.
package trace

import (
	"sync"
	"sync/atomic"

	"repro/internal/failure"
)

// Batch is one upload unit: a device's buffered failure events. Seq is
// the device-local sequence number assigned when the batch is sealed for
// upload (see wire.go): >= 1 on every upload. Zero marks an unsequenced
// frame, which exists only on disk — fleet.SaveResult dumps a run as
// chunks with DeviceID 0 and Seq 0 — and is replayed and indexed like any
// other but never becomes a dedup mark.
type Batch struct {
	DeviceID uint64
	Seq      uint64
	Events   []failure.Event
}

// maxBatchWire caps a batch's wire size (64 MiB) in both directions: a
// corrupt length prefix cannot drive an allocation bomb on the reader,
// and a writer refuses to emit a frame the reader would reject.
const maxBatchWire = 64 << 20

// bytesBuffer is a minimal append-only buffer implementing io.Writer.
type bytesBuffer []byte

func (b *bytesBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// Dataset is the centralized event store the analysis pipeline reads: one
// append-only list of immutable segments, each the events of one Publish.
// A published segment is never mutated, so a reader holds the lock only
// long enough to copy the list's capped slice header and then walks the
// segments unlocked. Each order is publish order: the admitted frames in
// store order for a collector, the slice order for FromEvents and a fleet
// run, whose canonical merge publishes one sorted array.
type Dataset struct {
	mu   sync.Mutex
	segs [][]failure.Event
	n    atomic.Int64
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset { return new(Dataset) }

// FromEvents builds a dataset from a copy of an ordered event slice; Each
// preserves the slice order.
func FromEvents(events []failure.Event) *Dataset {
	d := NewDataset()
	d.Publish(append([]failure.Event(nil), events...))
	return d
}

// Publish appends events as one immutable segment WITHOUT copying: the
// dataset takes ownership of the slice and the caller must never modify
// it again. Safe for concurrent use.
func (d *Dataset) Publish(events []failure.Event) {
	if len(events) == 0 {
		return
	}
	d.mu.Lock()
	d.segs = append(d.segs, events)
	d.n.Add(int64(len(events)))
	d.mu.Unlock()
}

// snapshot returns the current segment list. The returned slice is capped
// at its length, so a concurrent Publish (which only ever grows segs)
// cannot alias into it; segments themselves are immutable.
func (d *Dataset) snapshot() [][]failure.Event {
	d.mu.Lock()
	segs := d.segs[:len(d.segs):len(d.segs)]
	d.mu.Unlock()
	return segs
}

// Len returns the number of stored events.
func (d *Dataset) Len() int { return int(d.n.Load()) }

// Each calls fn for every event in publish order. fn must not retain the
// pointer across calls.
func (d *Dataset) Each(fn func(*failure.Event)) {
	for _, seg := range d.snapshot() {
		for i := range seg {
			fn(&seg[i])
		}
	}
}

// Split cuts the events, in Each order, into at most k runs (one if k < 1)
// of contiguous segment sub-slices: run lengths differ by at most one
// event, no run is empty, a cut may fall inside a segment, and the runs
// concatenated are the Each order. An empty dataset has no runs. The
// segment list is snapshotted once, as Each does: a segment published
// concurrently is either wholly in the runs or wholly absent. The
// sub-slices alias the dataset's immutable segments: read only.
func (d *Dataset) Split(k int) [][][]failure.Event {
	segs := d.snapshot()
	n := 0
	for _, seg := range segs {
		n += len(seg)
	}
	k = min(max(k, 1), n)
	if k == 0 {
		return nil
	}
	// Every cut adds at most one sub-slice, so one backing array holds all
	// the runs.
	flat := make([][]failure.Event, 0, len(segs)+k-1)
	runs := make([][][]failure.Event, 0, k)
	pos, from := 0, 0
	for _, seg := range segs {
		for len(seg) > 0 {
			// Run w ends at event (w+1)·n/k, rounded down: lengths differ
			// by at most one, and none is zero since k <= n.
			end := (len(runs) + 1) * n / k
			take := min(len(seg), end-pos)
			flat = append(flat, seg[:take:take])
			seg, pos = seg[take:], pos+take
			if pos == end {
				runs = append(runs, flat[from:len(flat):len(flat)])
				from = len(flat)
			}
		}
	}
	return runs
}

// ExposeSize publishes the dataset's current length on the
// trace_dataset_events gauge. A Collector does this as batches are
// admitted; the collector command calls it once for its boot replay.
func (d *Dataset) ExposeSize() { mDatasetEvents.Set(float64(d.Len())) }

// Events returns a copy of all stored events in Each order.
func (d *Dataset) Events() []failure.Event {
	out := make([]failure.Event, 0, d.Len())
	d.Each(func(e *failure.Event) { out = append(out, *e) })
	return out
}
