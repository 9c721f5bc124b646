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

// DefaultShards is the shard count of NewDataset. Sixteen comfortably
// exceeds the fleet's default worker count, so pinned appenders rarely
// share a shard.
const DefaultShards = 16

// Dataset is the centralized event store the analysis pipeline reads.
// Events live in per-shard append-only segment lists: concurrent
// producers (fleet shards, collector connections) append to distinct
// shards without contending on one global mutex. Readers do not follow
// the shards: the analysis engine cuts the events into equal runs with
// Split, however unevenly producers filled the shards. A published
// segment is never mutated, so iteration only locks a shard long enough
// to snapshot its segment list.
//
// Iteration order is deterministic for deterministic producers: shards
// are visited in index order, segments within a shard in publish order.
// Fleet workers pin their shard via AppendShard, so a fixed-seed run
// yields the same Each order for any worker count.
type Dataset struct {
	shards []datasetShard
	rr     atomic.Uint64 // round-robin cursor for unpinned Appends
}

type datasetShard struct {
	mu   sync.Mutex
	segs [][]failure.Event
	n    atomic.Int64
}

// snapshot returns the shard's current segment list. The returned slice
// is capped at its length, so a concurrent append (which only ever grows
// segs) cannot alias into it; segments themselves are immutable.
func (sh *datasetShard) snapshot() [][]failure.Event {
	sh.mu.Lock()
	segs := sh.segs[:len(sh.segs):len(sh.segs)]
	sh.mu.Unlock()
	return segs
}

// NewDataset returns an empty dataset with DefaultShards shards.
func NewDataset() *Dataset { return NewDatasetShards(DefaultShards) }

// NewDatasetShards returns an empty dataset with n shards (min 1).
func NewDatasetShards(n int) *Dataset {
	if n < 1 {
		n = 1
	}
	return &Dataset{shards: make([]datasetShard, n)}
}

// FromEvents builds a dataset from a copy of an ordered event slice; Each
// preserves the slice order.
func FromEvents(events []failure.Event) *Dataset {
	d := NewDataset()
	d.PublishContiguous(append([]failure.Event(nil), events...))
	return d
}

// NumShards returns the dataset's shard count.
func (d *Dataset) NumShards() int { return len(d.shards) }

// Append adds events to a shard chosen round-robin. Each call publishes
// one segment; producers that need deterministic placement should use
// AppendShard.
func (d *Dataset) Append(events ...failure.Event) {
	d.AppendShard(int(d.rr.Add(1)-1)%len(d.shards), events...)
}

// AppendShard adds events to shard (mod NumShards) as one immutable
// segment. The events are copied, so the caller may reuse its buffer.
func (d *Dataset) AppendShard(shard int, events ...failure.Event) {
	if len(events) == 0 {
		return
	}
	seg := append([]failure.Event(nil), events...)
	sh := &d.shards[shard%len(d.shards)]
	sh.mu.Lock()
	sh.segs = append(sh.segs, seg)
	sh.n.Add(int64(len(seg)))
	sh.mu.Unlock()
}

// PublishShard adds events to shard (mod NumShards) as one immutable
// segment WITHOUT copying: the dataset takes ownership of the slice and
// the caller must never modify it again. The fleet runner's canonical
// merge uses this to publish contiguous views of one sorted event array,
// so a multi-million-event dataset is materialized exactly once.
func (d *Dataset) PublishShard(shard int, events []failure.Event) {
	if len(events) == 0 {
		return
	}
	sh := &d.shards[shard%len(d.shards)]
	sh.mu.Lock()
	sh.segs = append(sh.segs, events)
	sh.n.Add(int64(len(events)))
	sh.mu.Unlock()
}

// PublishContiguous splits events into NumShards contiguous chunks and
// publishes chunk i to shard i WITHOUT copying (see PublishShard: the
// dataset owns the slice from here on), so on a dataset that held nothing
// Each visits the events in slice order.
func (d *Dataset) PublishContiguous(events []failure.Event) {
	ns := len(d.shards)
	base, rem := len(events)/ns, len(events)%ns
	off := 0
	for s := 0; s < ns; s++ {
		n := base
		if s < rem {
			n++
		}
		d.PublishShard(s, events[off:off+n:off+n])
		off += n
	}
}

// Len returns the number of stored events.
func (d *Dataset) Len() int {
	var n int64
	for i := range d.shards {
		n += d.shards[i].n.Load()
	}
	return int(n)
}

// ShardLen returns the number of events in shard (mod NumShards).
func (d *Dataset) ShardLen(shard int) int {
	return int(d.shards[shard%len(d.shards)].n.Load())
}

// Each calls fn for every event: shards in index order, segments in
// publish order. fn must not retain the pointer across calls.
func (d *Dataset) Each(fn func(*failure.Event)) {
	for s := range d.shards {
		d.EachShard(s, fn)
	}
}

// EachShard calls fn for every event in shard (mod NumShards), in
// publish order. Distinct shards may be iterated concurrently.
func (d *Dataset) EachShard(shard int, fn func(*failure.Event)) {
	for _, seg := range d.shards[shard%len(d.shards)].snapshot() {
		for i := range seg {
			fn(&seg[i])
		}
	}
}

// Split cuts the events, in Each order, into at most k runs (one if k < 1)
// of contiguous segment sub-slices: run lengths differ by at most one
// event, no run is empty, a cut may fall inside a segment, and the runs
// concatenated are the Each order. An empty dataset has no runs. Each
// shard is snapshotted once, as EachShard does: a segment published
// concurrently is either wholly in the runs or wholly absent. The
// sub-slices alias the dataset's immutable segments: read only.
func (d *Dataset) Split(k int) [][][]failure.Event {
	snaps := make([][][]failure.Event, len(d.shards))
	n, nsegs := 0, 0
	for s := range d.shards {
		snaps[s] = d.shards[s].snapshot()
		for _, seg := range snaps[s] {
			n += len(seg)
		}
		nsegs += len(snaps[s])
	}
	k = min(max(k, 1), n)
	if k == 0 {
		return nil
	}
	// Every cut adds at most one sub-slice, so one backing array holds all
	// the runs.
	flat := make([][]failure.Event, 0, nsegs+k-1)
	runs := make([][][]failure.Event, 0, k)
	pos, from := 0, 0
	for _, segs := range snaps {
		for _, seg := range segs {
			for len(seg) > 0 {
				// Run w ends at event (w+1)·n/k, rounded down: lengths
				// differ by at most one, and none is zero since k <= n.
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
	}
	return runs
}

// ExposeSize publishes the dataset's current length on the
// trace_dataset_events gauge. A Collector does this as batches are
// admitted; the commands call it once for what they loaded instead
// (cellserve: the run directory, collector: the boot replay).
func (d *Dataset) ExposeSize() { mDatasetEvents.Set(float64(d.Len())) }

// Events returns a copy of all stored events in Each order.
func (d *Dataset) Events() []failure.Event {
	out := make([]failure.Event, 0, d.Len())
	d.Each(func(e *failure.Event) { out = append(out, *e) })
	return out
}
