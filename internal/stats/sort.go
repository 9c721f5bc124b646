package stats

import (
	"math"
	"sort"
	"unsafe"
)

// radixMinLen is the size below which the comparison sort wins: the radix
// passes have a fixed per-call cost (key mapping plus histograms) that only
// amortizes on large samples.
const radixMinLen = 1 << 12

// SortFloats sorts xs ascending in place, producing exactly the order
// sort.Float64s would. Large slices take an LSD radix sort over the
// order-preserving uint64 key mapping, skipping digit positions that are
// constant across the sample (duration-style data concentrates in a narrow
// exponent range, so most of the eight passes collapse). Samples containing
// NaN fall back to the comparison sort; ECDF inputs never carry NaN, but the
// fallback keeps the helper total. The keys overwrite xs in place (they are
// the same width), so the only allocation is one scratch buffer.
func SortFloats(xs []float64) {
	if len(xs) < radixMinLen {
		sort.Float64s(xs)
		return
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			sort.Float64s(xs)
			return
		}
	}
	keys := unsafe.Slice((*uint64)(unsafe.Pointer(&xs[0])), len(xs))
	for i, b := range keys {
		// Monotone map to unsigned order: flip all bits of negatives,
		// set the sign bit of non-negatives.
		if b&(1<<63) != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		keys[i] = b
	}
	tmp := make([]uint64, len(keys))
	for shift := uint(0); shift < 64; shift += 8 {
		var counts [256]int
		for _, k := range keys {
			counts[(k>>shift)&0xff]++
		}
		if counts[(keys[0]>>shift)&0xff] == len(keys) {
			continue // every key shares this digit: nothing to reorder
		}
		sum := 0
		for d := range counts {
			c := counts[d]
			counts[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := (k >> shift) & 0xff
			tmp[counts[d]] = k
			counts[d]++
		}
		keys, tmp = tmp, keys
	}
	for i, k := range keys {
		if k&(1<<63) != 0 {
			k &^= 1 << 63
		} else {
			k = ^k
		}
		xs[i] = math.Float64frombits(k)
	}
}

// MergeSorted merges ascending slices into one new ascending slice: the
// sort of their union at the cost of one linear pass (see mergeWalk). The
// inputs are only read.
func MergeSorted(parts ...[]float64) []float64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out, _ := mergeWalk(parts, make([]float64, 0, n), 0)
	return out
}

// mergeWalk walks the stable merge of ascending runs in place: the run with
// the smallest head gives up everything that sorts before the second-
// smallest head, a chunk at a time. Ties go to the earlier run, so the
// order is by (value, run, position), and rank selects the same element.
// With out non-nil it appends the merge to out; otherwise it returns the
// merge's sum, added in that order with every value above limit counted as
// limit. The two share one loop because a callback per chunk costs more
// than the chunk: runs of near-continuous durations interleave finely.
// It is written for a handful of runs (a linear scan finds the heads),
// which is what the analysis tier has: one sample per failure kind.
func mergeWalk(runs [][]float64, out []float64, limit float64) ([]float64, float64) {
	heads := make([][]float64, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			heads = append(heads, r)
		}
	}
	sum := 0.0
	for len(heads) > 0 {
		m, run, upto := 0, heads[0], math.Inf(1)
		if len(heads) > 1 {
			// m: the first run with the smallest head; s: the first other
			// run with the smallest head among the rest. The chunk is every
			// leading element of run m up to upto: through the second head
			// if run m comes first, else strictly below it.
			s := 1
			if heads[1][0] < heads[0][0] {
				m, s = 1, 0
			}
			for i := 2; i < len(heads); i++ {
				if x := heads[i][0]; x < heads[m][0] {
					m, s = i, m
				} else if x < heads[s][0] {
					s = i
				}
			}
			run, upto = heads[m], heads[s][0]
			if s < m {
				upto = below(upto)
			}
		}
		// The head is always in the chunk, so every round makes progress.
		j := 1
		if out != nil {
			for j < len(run) && run[j] <= upto {
				j++
			}
			out = append(out, run[:j]...)
		} else {
			sum += min(run[0], limit)
			for ; j < len(run) && run[j] <= upto; j++ {
				sum += min(run[j], limit)
			}
		}
		if heads[m] = run[j:]; len(heads[m]) == 0 {
			heads = append(heads[:m], heads[m+1:]...)
		}
	}
	return out, sum
}

// below returns the largest float64 less than x, for x neither NaN nor
// -Inf: y <= below(x) exactly when y < x. math.Nextafter, which is not
// inlined, costs a call per chunk.
func below(x float64) float64 {
	b := math.Float64bits(x)
	switch {
	case x > 0:
		b--
	case x < 0:
		b++
	default:
		return -math.SmallestNonzeroFloat64
	}
	return math.Float64frombits(b)
}

// rank returns the element at 0-based rank r < total length of the stable
// merge of ascending runs (mergeWalk's order) without merging: a pivot from
// the middle of the widest candidate window splits every window by binary
// search, and each round at least halves that window.
func rank(runs [][]float64, r int) float64 {
	k := len(runs)
	bounds := make([]int, 4*k)
	lo, hi, ge, gt := bounds[:k], bounds[k:2*k], bounds[2*k:3*k], bounds[3*k:]
	for i, run := range runs {
		hi[i] = len(run)
	}
	below := 0 // elements left of the windows: all sort before rank r
	for {
		b := 0
		for i := 1; i < k; i++ {
			if hi[i]-lo[i] > hi[b]-lo[b] {
				b = i
			}
		}
		pivot := runs[b][(lo[b]+hi[b])/2]
		less, notMore := below, below
		for i, run := range runs {
			w := run[lo[i]:hi[i]]
			ge[i] = lo[i] + sort.SearchFloat64s(w, pivot)
			gt[i] = lo[i] + sort.Search(len(w), func(j int) bool { return w[j] > pivot })
			less += ge[i] - lo[i]
			notMore += gt[i] - lo[i]
		}
		switch {
		case r < less:
			copy(hi, ge)
		case r >= notMore:
			copy(lo, gt)
			below = notMore
		default:
			// Every element equal to the pivot is inside the windows; rank r
			// is one of them, counted in run order.
			r -= less
			for i, run := range runs {
				c := gt[i] - ge[i]
				if r < c {
					return run[ge[i]+r]
				}
				r -= c
			}
		}
	}
}
