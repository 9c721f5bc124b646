package analysis

import (
	"math"
	"time"

	"repro/internal/failure"
	"repro/internal/stats"
)

// windowBucket is one bucket of the sliding window: counters plus a
// fixed-size duration histogram, so the window never retains raw samples.
// The bucket's histogram is kept so that its counts can leave the window's
// when the bucket falls below the floor.
type windowBucket struct {
	idx    int64 // absolute bucket index this slot holds; -1 = empty
	byKind [failure.NumKinds]int64
	durSum time.Duration // integer, so the sum is the same in any order
	durs   stats.DurationHist
}

func (b *windowBucket) reset(idx int64) {
	b.idx = idx
	b.byKind = [failure.NumKinds]int64{}
	b.durSum = 0
	b.durs.Reset()
}

// windowAccum maintains a sliding window over the virtual timeline of
// event Start times: a ring of n buckets of width bucketDur, keyed by
// absolute bucket index (Start / bucketDur). The window covers the n most
// recent buckets ending at the highest index observed; events older than
// the floor are counted and dropped, and a bucket the head leaves below
// the floor is emptied then. durs is the histogram of every duration the
// window holds, the sum of its buckets', so a snapshot reads one histogram
// instead of merging n. The accumulator is not safe for concurrent use —
// the streaming engine serializes access.
type windowAccum struct {
	bucketDur time.Duration
	buckets   []windowBucket
	durs      stats.DurationHist
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
		w.advance(idx)
	}
	b := &w.buckets[idx%int64(len(w.buckets))]
	if b.idx != idx {
		b.reset(idx)
	}
	// The wire decoder does not validate the kind byte: an out-of-range
	// kind counts as an event but has no by_kind row.
	if int(e.Kind) < failure.NumKinds {
		b.byKind[e.Kind]++
	}
	b.durSum += e.Duration
	b.durs.Add(e.Duration)
	w.durs.Add(e.Duration)
}

// advance moves the head to idx and empties the buckets that fall below
// the new floor, taking their durations out of the window's histogram.
func (w *windowAccum) advance(idx int64) {
	n := int64(len(w.buckets))
	floor := max(idx-n+1, 0)
	for j := w.floor(); j < floor && j <= w.head; j++ {
		if b := &w.buckets[j%n]; b.idx == j {
			w.durs.Sub(&b.durs)
			b.reset(-1)
		}
	}
	w.head = idx
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

// snapshot sums the window's buckets into a summary. It leaves the
// accumulator untouched, and the summary depends only on which events the
// window holds: the quantiles are clamped to the extremes of the buckets
// in the window, not to the window histogram's, which Sub does not shrink.
func (w *windowAccum) snapshot() WindowSnapshot {
	snap := WindowSnapshot{
		BucketSeconds: w.bucketDur.Seconds(),
		Buckets:       len(w.buckets),
		LateDrops:     w.late,
		ByKind:        make([]KindCountDoc, 0, failure.NumKinds),
	}
	var kinds [failure.NumKinds]int64
	if w.head >= 0 {
		floor := w.floor()
		snap.FromSeconds = (time.Duration(floor) * w.bucketDur).Seconds()
		snap.ToSeconds = (time.Duration(w.head+1) * w.bucketDur).Seconds()
		var durSum, durMax time.Duration
		durMin := time.Duration(math.MaxInt64)
		for i := range w.buckets {
			b := &w.buckets[i]
			if b.idx < floor || b.idx > w.head {
				continue
			}
			durMin, durMax = min(durMin, b.durs.Min()), max(durMax, b.durs.Max())
			snap.Events += b.durs.N()
			for k, n := range b.byKind {
				kinds[k] += n
			}
			durSum += b.durSum
		}
		snap.Samples = int(w.durs.N())
		if snap.Events > 0 {
			quantile := func(q float64) float64 {
				return min(max(w.durs.Quantile(q), durMin), durMax).Seconds()
			}
			snap.DurMean = durSum.Seconds() / float64(snap.Events)
			snap.DurMax = durMax.Seconds()
			snap.DurP50, snap.DurP90, snap.DurP99 = quantile(0.5), quantile(0.9), quantile(0.99)
		}
	}
	for k := failure.Kind(0); k < failure.NumKinds; k++ {
		snap.ByKind = append(snap.ByKind, KindCountDoc{Kind: k.String(), Count: kinds[k]})
	}
	return snap
}
