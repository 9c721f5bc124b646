// Package trace implements the measurement data pipeline of Android-MOD:
// each device's failure events are encoded as one raw v3 frame and uploaded
// to a backend collector for centralized analysis (§2.2–2.3). Uploads are gated
// on WiFi connectivity to spare the (possibly failing) cellular link, and
// per-device network budgets are accounted so the <100 KB/month overhead
// claim can be checked.
package trace

import (
	"sync"
	"sync/atomic"

	"repro/internal/failure"
	"repro/internal/stats"
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

// Dataset is the centralized event store the analysis pipeline reads: one
// append-only list of immutable segments, each the events of one Publish.
// A published segment is never mutated, so a reader holds the lock only
// long enough to copy the list's capped slice header and then walks the
// segments unlocked. Each order is publish order: the admitted frames in
// store order for a collector, the slice order for FromEvents, and for a
// fleet run its workers' buffers in worker order — device order, each
// device's events as it recorded them. No reader depends on the order.
//
// A collector connection decodes straight into a block the dataset owns
// (see takeTail): each admitted frame is published as the next capped
// slice of its connection's block, so admission allocates nothing per
// frame. A tail — the unfilled end of a block — belongs to one connection
// at a time and is written only before the frame in it is published.
type Dataset struct {
	mu    sync.Mutex
	segs  [][]failure.Event
	tails [][]failure.Event // tails handed back by closed connections
	n     atomic.Int64
}

// blockEvents is how many events one dataset block holds: 1024 × 72 B =
// 73 728 B, nine whole 8 KiB pages, so a block carries no page rounding,
// and a 512-event frame costs exactly its 36 864 B.
const blockEvents = 1024

// phoneFrameEvents is a phone's upload frame: the smallest tail the
// dataset keeps.
const phoneFrameEvents = 16

// maxTails bounds the tails the dataset keeps for the next connections.
// Past it a handed-back tail is dropped: its block stays as full as its
// published frames made it.
const maxTails = 64

// takeTail checks out room for at least want events, want <= blockEvents:
// the last handed-back tail that has it, or a fresh block. The tail is
// empty (len 0) and its capacity is the caller's alone: it decodes frames
// there and publishes each as a capped prefix, then hands the rest back
// with giveTail.
func (d *Dataset) takeTail(want int) []failure.Event {
	d.mu.Lock()
	for i := len(d.tails) - 1; i >= 0; i-- {
		if t := d.tails[i]; cap(t) >= want {
			last := len(d.tails) - 1
			d.tails[i], d.tails[last] = d.tails[last], nil
			d.tails = d.tails[:last]
			d.mu.Unlock()
			return t
		}
	}
	d.mu.Unlock()
	return make([]failure.Event, 0, blockEvents)
}

// giveTail hands back an unpublished tail, so the next connection fills it
// instead of a block being left half empty. A tail with less room than a
// phone frame is dropped, as is any past maxTails.
func (d *Dataset) giveTail(t []failure.Event) {
	if cap(t) < phoneFrameEvents {
		return
	}
	d.mu.Lock()
	if len(d.tails) < maxTails {
		d.tails = append(d.tails, t[:0])
	}
	d.mu.Unlock()
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset { return new(Dataset) }

// FromEvents builds a dataset from a copy of an ordered event slice; Each
// preserves the slice order. A cross-package test helper.
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

// Split cuts the events, in Each order, into at most k runs by
// stats.Split's rule: run lengths differ by at most one event, no run is
// empty, a cut may fall inside a segment, and the runs concatenated are the
// Each order. An empty dataset has no runs. The segment list is snapshotted
// once, as Each does: a segment published concurrently is either wholly in
// the runs or wholly absent. The sub-slices alias the dataset's immutable
// segments: read only.
func (d *Dataset) Split(k int) [][][]failure.Event { return stats.Split(d.snapshot(), k) }

// ExposeSize publishes the dataset's current length on the
// trace_dataset_events gauge. A Collector does this as batches are
// admitted; the ingest node (internal/node) calls it once after its boot
// replay.
func (d *Dataset) ExposeSize() { mDatasetEvents.Set(float64(d.Len())) }

// Events returns a copy of all stored events in Each order.
func (d *Dataset) Events() []failure.Event {
	out := make([]failure.Event, 0, d.Len())
	d.Each(func(e *failure.Event) { out = append(out, *e) })
	return out
}
