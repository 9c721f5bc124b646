package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"unsafe"
)

// radixMinLen is the size below which the comparison sort wins: the radix
// passes have a fixed per-call cost (key mapping plus histograms) that only
// amortizes on large samples.
const radixMinLen = 1 << 12

// msdBits is the width of the radix sort's first digit, the top of the key:
// sign, exponent and the leading mantissa bits. It cuts a duration sample
// into a few hundred buckets of a few thousand keys each, small enough that
// the rest of a bucket's sort stays in cache.
const msdBits = 16

// Within a bucket, the second digit is at most subBits wide, and
// insertion sort finishes groups of up to groupMax keys that share it (see
// sortBucket).
const (
	subBits  = 14
	groupMax = 32
)

// SortFloats sorts xs ascending in place, producing exactly the order
// sort.Float64s would: it is SortUnion of xs alone, on one core, copied
// back.
func SortFloats(xs []float64) { copy(xs, SortUnion([][]float64{xs}, 1)) }

// SortUnion returns the union of parts, ascending, in one new slice of
// exactly their total length (nil if they are all empty): the bits
// SortFloats returns for their concatenation, in any split of it into
// parts. The parts are only read. Up to workers goroutines share the sort
// (see radixSort), so no step merges and none waits on one core. Unions
// smaller than radixMinLen, and any holding NaN, are the concatenation
// under sort.Float64s; ECDF inputs never carry NaN, but the fallback keeps
// the helper total.
func SortUnion(parts [][]float64, workers int) []float64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	if n >= radixMinLen && radixSort(out, parts, workers) {
		return out
	}
	out = out[:0]
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Float64s(out)
	return out
}

// key maps x to a uint64 whose unsigned order is x's order, -0 before +0:
// it flips every bit of a negative and sets the sign bit of the rest.
func key(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// unkey inverts key.
func unkey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// radixSort sorts the union of parts into out, which has its length and
// shares no part's memory. It runs in three steps on up to workers
// goroutines, each step on the results of the last: histogram every
// worker's share of the union by the top msdBits of the key; scatter every
// share's keys to its buckets' ranges of out, as keys (a worker's offsets
// start where the earlier shares' keys in that bucket end); then sort the
// buckets, each worker a contiguous range of them holding about as many
// keys as every other, and turn them back into floats where they lie. It
// returns false, before writing anything, if the union holds NaN.
func radixSort(out []float64, parts [][]float64, workers int) bool {
	const buckets = 1 << msdBits
	n := len(out)
	keys := unsafe.Slice((*uint64)(unsafe.Pointer(&out[0])), n)
	workers = max(1, min(workers, n/radixMinLen))
	shares := Split(parts, workers)
	offsets := make([]int, workers*buckets)
	used := make([][2]int, workers) // each share's first bucket and one past its last
	nan := make([]bool, workers)
	OnWorkers(workers, func(w int) {
		h := offsets[w*buckets : (w+1)*buckets]
		for _, p := range shares[w] {
			for _, x := range p {
				if x != x {
					nan[w] = true
					return
				}
				h[key(x)>>(64-msdBits)]++
			}
		}
		lo, hi := 0, buckets
		for h[lo] == 0 {
			lo++
		}
		for h[hi-1] == 0 {
			hi--
		}
		used[w] = [2]int{lo, hi}
	})
	if slices.Contains(nan, true) {
		return false
	}
	// Turn the counts into offsets, bucket by bucket and share by share,
	// over the buckets in use; bounds[b-lo] is where bucket b starts.
	lo, hi := buckets, 0
	for _, u := range used {
		lo, hi = min(lo, u[0]), max(hi, u[1])
	}
	bounds := make([]int, hi-lo+1)
	sum := 0
	for b := lo; b < hi; b++ {
		bounds[b-lo] = sum
		for i := b; i < len(offsets); i += buckets {
			c := offsets[i]
			offsets[i] = sum
			sum += c
		}
	}
	bounds[hi-lo] = n
	OnWorkers(workers, func(w int) {
		o := offsets[w*buckets : (w+1)*buckets]
		for _, p := range shares[w] {
			for _, x := range p {
				k := key(x)
				d := k >> (64 - msdBits)
				keys[o[d]] = k
				o[d]++
			}
		}
	})
	// Cut the buckets into workers ranges of about n/workers keys each.
	cuts := make([]int, workers+1)
	for w, r := 1, 0; w < workers; w++ {
		for bounds[r] < w*n/workers {
			r++
		}
		cuts[w] = r
	}
	cuts[workers] = hi - lo
	OnWorkers(workers, func(w int) {
		widest := 0
		for r := cuts[w]; r < cuts[w+1]; r++ {
			widest = max(widest, bounds[r+1]-bounds[r])
		}
		tmp := make([]uint64, widest)
		counts := make([]int, 1<<subBits)
		for r := cuts[w]; r < cuts[w+1]; r++ {
			if i, j := bounds[r], bounds[r+1]; i < j {
				sortBucket(keys[i:j], tmp, counts, out[i:j])
			}
		}
	})
	return true
}

// sortBucket sorts keys that share their top msdBits and writes them as
// floats to dst, which is keys' own memory. tmp and counts are scratch, tmp
// at least as long as keys. It is one more most-significant-digit pass,
// on the highest bits where the bucket's keys differ, as wide as the
// bucket needs for about one key per digit value (so a cluster of nearby
// values splits as finely as a spread-out bucket does), into tmp. That
// leaves every key among the few that share its digit, so one insertion
// sort over the whole bucket finishes it in well under one move per key.
// If a digit value holds more than groupMax keys — a spike the digit did
// not split — each such group is finished by a comparison sort first,
// which bounds the insertion sort's moves whatever the data. When the keys
// differ in no more bits than that digit would take (whole seconds, say),
// counting them is the whole sort.
func sortBucket(keys, tmp []uint64, counts []int, dst []float64) {
	if len(keys) <= groupMax {
		insertionSort(keys)
		unkeyAll(dst, keys)
		return
	}
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	if diff == 0 {
		unkeyAll(dst, keys)
		return
	}
	// The keys agree above bit high-1 and below bit low.
	high, low := bits.Len64(diff), bits.TrailingZeros64(diff)
	width := min(subBits, bits.Len(uint(len(keys))))
	if high-low <= width {
		// Few enough bits vary to count every value they can take: each
		// key is keys[0] with those bits replaced, so the counts are the
		// sorted bucket.
		shift, mask := uint(low), uint64(1)<<(high-low)-1
		c := counts[:mask+1]
		clear(c)
		for _, k := range keys {
			c[(k>>shift)&mask]++
		}
		base, i := keys[0]&^(mask<<shift), 0
		for v, m := range c {
			x := unkey(base | uint64(v)<<shift)
			for end := i + m; i < end; i++ {
				dst[i] = x
			}
		}
		return
	}
	shift := uint(high - width)
	mask := uint64(1)<<width - 1
	c := counts[:1<<width]
	clear(c)
	for _, k := range keys {
		c[(k>>shift)&mask]++
	}
	sum, widest := 0, 0
	for v, m := range c {
		c[v] = sum
		sum += m
		widest = max(widest, m)
	}
	tmp = tmp[:len(keys)]
	for _, k := range keys {
		v := (k >> shift) & mask
		tmp[c[v]] = k
		c[v]++
	}
	if widest > groupMax {
		// c[v] now ends group v.
		for v, lo := 0, 0; v < len(c); v++ {
			if c[v]-lo > groupMax {
				slices.Sort(tmp[lo:c[v]])
			}
			lo = c[v]
		}
	}
	insertionSort(tmp)
	unkeyAll(dst, tmp)
}

// insertionSort sorts keys in place, in time linear in their number plus
// the number of pairs out of order.
func insertionSort(keys []uint64) {
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

// unkeyAll writes the floats of keys to dst, which may be keys' own
// memory.
func unkeyAll(dst []float64, keys []uint64) {
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = unkey(k)
	}
}

// Split cuts the concatenation of parts into at most k runs (one if k < 1)
// of contiguous sub-slices of the parts, in order: run w ends at element
// (w+1)·n/k of the n in all, so run lengths differ by at most one and none
// is empty, a cut may fall inside a part, and the runs concatenated are the
// parts concatenated. Empty parts, and k > n, give no empty runs; nothing
// gives no runs. Every sub-slice is capped at its length, so appending to
// one cannot reach into the next; they alias the parts' memory.
func Split[T any](parts [][]T, k int) [][][]T {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	k = min(max(k, 1), n)
	if k == 0 {
		return nil
	}
	// Every cut adds at most one sub-slice, so one backing array holds all
	// the runs.
	flat := make([][]T, 0, len(parts)+k-1)
	runs := make([][][]T, 0, k)
	pos, from := 0, 0
	for _, p := range parts {
		for len(p) > 0 {
			end := (len(runs) + 1) * n / k
			take := min(len(p), end-pos)
			flat = append(flat, p[:take:take])
			p, pos = p[take:], pos+take
			if pos == end {
				runs = append(runs, flat[from:len(flat):len(flat)])
				from = len(flat)
			}
		}
	}
	return runs
}

// OnWorkers runs f(0) … f(workers-1) at once, f(0) on the calling
// goroutine, and returns when every call has. It runs f(0) alone when
// workers < 2.
func OnWorkers(workers int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(0)
	wg.Wait()
}

// mergedSum sums the stable merge of ascending runs without merging them:
// the run with the smallest head gives up everything that sorts before the
// second-smallest head, a chunk at a time, every value above limit counted
// as limit. Ties go to the earlier run, so the order is by (value, run,
// position), which is the order rank selects in. The chunks are summed in
// the loop, not through a callback: runs of near-continuous durations
// interleave finely, so a call per chunk would cost more than the chunk.
// It is written for a handful of runs (a linear scan finds the heads),
// which is what the analysis tier has: one sample per failure kind.
func mergedSum(runs [][]float64, limit float64) float64 {
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
		sum += min(run[0], limit)
		j := 1
		for ; j < len(run) && run[j] <= upto; j++ {
			sum += min(run[j], limit)
		}
		if heads[m] = run[j:]; len(heads[m]) == 0 {
			heads = append(heads[:m], heads[m+1:]...)
		}
	}
	return sum
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
// merge of ascending runs (mergedSum's order) without merging: a pivot from
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

// SortCounts sorts xs ascending in place, in SortFloats' order, when every
// element is a whole number >= 0. The values below len(xs) are sorted by
// counting: one read of xs into a histogram of len(xs) entries, one write
// of the values back in order. The few above it (a heavy tail) are gathered
// at the front as they are read, sorted by SortFloats and moved behind the
// rest. Whole numbers are exact in float64, so counting writes the bits a
// comparison sort would.
func SortCounts(xs []float64) {
	n := len(xs)
	hist := make([]int, n)
	big := 0
	for _, x := range xs {
		if x < float64(n) {
			hist[int(x)]++
		} else {
			xs[big] = x // big <= the index being read: only read ones are overwritten
			big++
		}
	}
	SortFloats(xs[:big])
	copy(xs[n-big:], xs[:big])
	i := 0
	for v, c := range hist {
		for end := i + c; i < end; i++ {
			xs[i] = float64(v)
		}
	}
}
