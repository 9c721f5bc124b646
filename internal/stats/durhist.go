package stats

import (
	"math"
	"math/bits"
	"time"
)

// The histogram has durHistSub buckets per octave, so no bucket is wider
// than 1/16 of its values; below durHistSub each value has its own bucket.
// durHistBins buckets cover every non-negative int64.
const (
	durHistSubBits = 4
	durHistSub     = 1 << durHistSubBits
	durHistBins    = (64 - durHistSubBits) * durHistSub
)

// DurationHistMaxRelErr bounds DurationHist.Quantile: the estimate is
// within this fraction of the exact nearest-rank order statistic.
const DurationHistMaxRelErr = 1.0 / (2 * durHistSub)

// DurationHist is a log-bucketed histogram of durations counted in integer
// nanoseconds. Add does no floating-point work and allocates only on a
// histogram's first sample. The counts are integers, so a histogram depends
// only on the multiset of durations fed to it, never on their order, and
// Sub takes a sub-multiset back out exactly. Negative durations count as
// zero. Counters are 32-bit: one histogram holds fewer than 2^32 samples
// per bucket. The zero value is empty and ready to use.
type DurationHist struct {
	counts   *[durHistBins]uint32
	n        int64
	lo, hi   int // bucket range holding samples; meaningful iff n > 0
	min, max time.Duration
}

// durHistIndex is v's bucket: the position of its top bit, then the
// durHistSubBits bits below it.
func durHistIndex(v uint64) int {
	shift := max(bits.Len64(v)-durHistSubBits-1, 0)
	return shift<<durHistSubBits + int(v>>shift)
}

// durHistMid is the midpoint of bucket i.
func durHistMid(i int) time.Duration {
	shift := max(i>>durHistSubBits-1, 0)
	lo := uint64(i-shift<<durHistSubBits) << shift
	return time.Duration(lo + 1<<shift>>1)
}

// Add feeds one duration.
func (h *DurationHist) Add(d time.Duration) {
	d = max(d, 0)
	i := durHistIndex(uint64(d))
	if h.counts == nil {
		h.counts = new([durHistBins]uint32)
	}
	if h.n == 0 {
		h.lo, h.hi, h.min, h.max = i, i, d, d
	} else {
		h.lo, h.hi = min(h.lo, i), max(h.hi, i)
		h.min, h.max = min(h.min, d), max(h.max, d)
	}
	h.counts[i]++
	h.n++
}

// Sub removes o's durations from h, which must hold every one of them.
// The counts stay exact; h's bucket range and extremes do not shrink, so
// Quantile keeps its bound but Min and Max may lie beyond what h holds.
func (h *DurationHist) Sub(o *DurationHist) {
	if o.n == 0 {
		return
	}
	for i := o.lo; i <= o.hi; i++ {
		h.counts[i] -= o.counts[i]
	}
	h.n -= o.n
}

// Reset empties h in place, keeping its counters for reuse.
func (h *DurationHist) Reset() {
	if h.n > 0 {
		clear(h.counts[h.lo : h.hi+1])
	}
	*h = DurationHist{counts: h.counts}
}

// N is the number of durations fed.
func (h *DurationHist) N() int64 { return h.n }

// Min is the smallest duration fed, 0 when empty.
func (h *DurationHist) Min() time.Duration { return h.min }

// Max is the largest duration fed, 0 when empty.
func (h *DurationHist) Max() time.Duration { return h.max }

// Quantile estimates the q-quantile, q in [0, 1], as the midpoint of the
// bucket holding the nearest-rank order statistic, clamped to the observed
// [min, max]; see DurationHistMaxRelErr. It is 0 when h is empty.
func (h *DurationHist) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int64(min(max(math.Ceil(q*float64(h.n)), 1), float64(h.n)))
	i, seen := h.lo, int64(h.counts[h.lo])
	for seen < rank {
		i++
		seen += int64(h.counts[i])
	}
	return min(max(durHistMid(i), h.min), h.max)
}
