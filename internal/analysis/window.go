package analysis

import (
	"time"

	"repro/internal/failure"
	"repro/internal/stats"
)

// windowQuantiles are the duration quantiles each window bucket's P²
// sketch tracks (seconds).
var windowQuantiles = []float64{0.5, 0.9, 0.99}

func newWindowSketch() *stats.QuantileSet {
	s, err := stats.NewQuantileSet(windowQuantiles...)
	if err != nil {
		// The quantile list is a compile-time constant in (0, 1).
		panic("analysis: invalid window quantiles: " + err.Error())
	}
	return s
}

// windowBucket is one bucket of the sliding window: counters plus an
// O(1)-memory duration sketch, so the window never retains raw samples.
type windowBucket struct {
	idx    int64 // absolute bucket index this slot holds; -1 = empty
	events int64
	byKind [failure.NumKinds]int64
	durSum float64 // seconds
	durMax float64 // seconds
	sketch *stats.QuantileSet
}

func (b *windowBucket) reset(idx int64) {
	b.idx = idx
	b.events = 0
	b.byKind = [failure.NumKinds]int64{}
	b.durSum, b.durMax = 0, 0
	b.sketch = newWindowSketch()
}

// windowAccum maintains a sliding window over the virtual timeline of
// event Start times: a ring of n buckets of width bucketDur, keyed by
// absolute bucket index (Start / bucketDur). The window covers the n most
// recent buckets ending at the highest index observed; events older than
// the floor are counted and dropped, and stale ring slots are reclaimed
// lazily on their next write. The accumulator is not safe for concurrent
// use — the streaming engine serializes access.
type windowAccum struct {
	bucketDur time.Duration
	buckets   []windowBucket
	head      int64 // highest absolute bucket index seen; -1 before any event
	late      int64 // events below the window floor, dropped
}

func newWindowAccum(n int, bucketDur time.Duration) *windowAccum {
	if n <= 0 {
		n = 1
	}
	if bucketDur <= 0 {
		bucketDur = time.Hour
	}
	w := &windowAccum{bucketDur: bucketDur, head: -1, buckets: make([]windowBucket, n)}
	for i := range w.buckets {
		w.buckets[i].idx = -1
	}
	return w
}

// bucketIndex maps a virtual start time to its absolute bucket index.
// Negative starts (malformed input) clamp to bucket zero.
func (w *windowAccum) bucketIndex(start time.Duration) int64 {
	if start < 0 {
		return 0
	}
	return int64(start / w.bucketDur)
}

// floor is the lowest absolute bucket index still inside the window.
func (w *windowAccum) floor() int64 {
	if w.head < 0 {
		return 0
	}
	f := w.head - int64(len(w.buckets)) + 1
	if f < 0 {
		f = 0
	}
	return f
}

// Add feeds one event.
func (w *windowAccum) Add(e *failure.Event) {
	idx := w.bucketIndex(e.Start)
	if w.head >= 0 && idx < w.floor() {
		w.late++
		return
	}
	if idx > w.head {
		w.head = idx
	}
	b := &w.buckets[idx%int64(len(w.buckets))]
	if b.idx != idx {
		b.reset(idx)
	}
	b.events++
	// The wire decoder does not validate the kind byte: an out-of-range
	// kind counts as an event but has no by_kind row.
	if int(e.Kind) < failure.NumKinds {
		b.byKind[e.Kind]++
	}
	sec := e.Duration.Seconds()
	b.durSum += sec
	if sec > b.durMax {
		b.durMax = sec
	}
	b.sketch.Add(sec)
}

// KindCountDoc is one failure kind's event count in a window snapshot.
type KindCountDoc struct {
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// WindowSnapshot summarizes the sliding window for the live API.
type WindowSnapshot struct {
	BucketSeconds float64        `json:"bucket_seconds"`
	Buckets       int            `json:"buckets"`
	FromSeconds   float64        `json:"from_seconds"`
	ToSeconds     float64        `json:"to_seconds"`
	Events        int64          `json:"events"`
	ByKind        []KindCountDoc `json:"by_kind"`
	LateDrops     int64          `json:"late_drops"`
	DurMean       float64        `json:"dur_mean_s"`
	DurMax        float64        `json:"dur_max_s"`
	DurP50        float64        `json:"dur_p50_s"`
	DurP90        float64        `json:"dur_p90_s"`
	DurP99        float64        `json:"dur_p99_s"`
	Samples       int            `json:"samples"`
}

// snapshot merges every non-stale bucket into a window summary. Sketches
// merge into a fresh set (Merge never mutates its argument), so queries
// leave the accumulator untouched.
func (w *windowAccum) snapshot() WindowSnapshot {
	snap := WindowSnapshot{
		BucketSeconds: w.bucketDur.Seconds(),
		Buckets:       len(w.buckets),
		LateDrops:     w.late,
	}
	var kinds [failure.NumKinds]int64
	if w.head >= 0 {
		floor := w.floor()
		snap.FromSeconds = (time.Duration(floor) * w.bucketDur).Seconds()
		snap.ToSeconds = (time.Duration(w.head+1) * w.bucketDur).Seconds()
		merged := newWindowSketch()
		var durSum float64
		for i := range w.buckets {
			b := &w.buckets[i]
			if b.idx < floor || b.idx > w.head {
				continue
			}
			snap.Events += b.events
			for k, n := range b.byKind {
				kinds[k] += n
			}
			durSum += b.durSum
			if b.durMax > snap.DurMax {
				snap.DurMax = b.durMax
			}
			merged.Merge(b.sketch)
		}
		snap.Samples = merged.N()
		if snap.Events > 0 {
			qs := merged.Quantiles()
			snap.DurP50, snap.DurP90, snap.DurP99 = qs[0], qs[1], qs[2]
			snap.DurMean = durSum / float64(snap.Events)
		}
	}
	for k := failure.Kind(0); k < failure.NumKinds; k++ {
		snap.ByKind = append(snap.ByKind, KindCountDoc{Kind: k.String(), Count: kinds[k]})
	}
	return snap
}
