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
// sort of their union at the cost of one linear pass. The inputs are only
// read. It is written for a handful of parts (a linear scan picks the
// smallest head), which is what the analysis tier has: one sample per
// failure kind.
func MergeSorted(parts ...[]float64) []float64 {
	n := 0
	heads := make([][]float64, 0, len(parts))
	for _, p := range parts {
		if len(p) > 0 {
			n += len(p)
			heads = append(heads, p)
		}
	}
	out := make([]float64, 0, n)
	for len(heads) > 1 {
		m := 0
		for i := 1; i < len(heads); i++ {
			if heads[i][0] < heads[m][0] {
				m = i
			}
		}
		out = append(out, heads[m][0])
		if heads[m] = heads[m][1:]; len(heads[m]) == 0 {
			heads[m] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
	if len(heads) == 1 {
		out = append(out, heads[0]...)
	}
	return out
}
