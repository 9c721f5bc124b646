package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
)

// nearestRank is the exact order statistic DurationHist.Quantile estimates.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	n := int64(len(sorted))
	return sorted[min(max(int64(math.Ceil(q*float64(n))), 1), n)-1]
}

// checkAgainstExact requires every quantile of h to lie within
// DurationHistMaxRelErr of the exact order statistic of xs.
func checkAgainstExact(t *testing.T, name string, h *DurationHist, xs []time.Duration) {
	t.Helper()
	sorted := slices.Clone(xs)
	for i, x := range sorted {
		sorted[i] = max(x, 0)
	}
	slices.Sort(sorted)
	if h.N() != int64(len(xs)) {
		t.Fatalf("%s: N = %d, want %d", name, h.N(), len(xs))
	}
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		got, exact := h.Quantile(q), nearestRank(sorted, q)
		if float64(absDur(got-exact)) > float64(exact)*DurationHistMaxRelErr {
			t.Errorf("%s q=%v: got %v, exact %v (rel err %.4f)", name, q, got, exact,
				float64(absDur(got-exact))/float64(exact))
		}
		if got < sorted[0] || got > sorted[len(sorted)-1] {
			t.Errorf("%s q=%v: %v outside [%v, %v]", name, q, got, sorted[0], sorted[len(sorted)-1])
		}
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func durationStreams() map[string][]time.Duration {
	r := rand.New(rand.NewSource(3))
	gen := func(n int, f func() time.Duration) []time.Duration {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = f()
		}
		return xs
	}
	return map[string][]time.Duration{
		"uniform-seconds": gen(20000, func() time.Duration { return time.Duration(r.Int63n(int64(100 * time.Second))) }),
		"exponential":     gen(20000, func() time.Duration { return time.Duration(r.ExpFloat64() * float64(30*time.Second)) }),
		"lognormal-wide":  gen(20000, func() time.Duration { return time.Duration(math.Exp(r.NormFloat64()*6 + 20)) }),
		"whole-seconds":   gen(5000, func() time.Duration { return time.Duration(1+r.Intn(300)) * time.Second }),
		"tiny":            gen(500, func() time.Duration { return time.Duration(r.Intn(32)) }), // one-value buckets
		"single":          {7 * time.Second},
		"constant":        gen(1000, func() time.Duration { return 1234567 * time.Microsecond }),
		"two-points":      gen(1001, func() time.Duration { return time.Duration(1+r.Intn(2)) * time.Hour }),
	}
}

// TestDurationHistAgainstExactQuantiles pins the stated accuracy bound on
// streams from nanoseconds to days, and exactness where a bucket is one
// value wide or the histogram holds a single value.
func TestDurationHistAgainstExactQuantiles(t *testing.T) {
	for name, xs := range durationStreams() {
		var h DurationHist
		for _, x := range xs {
			h.Add(x)
		}
		checkAgainstExact(t, name, &h, xs)
		if h.Min() != max(slices.Min(xs), 0) || h.Max() != slices.Max(xs) {
			t.Errorf("%s: extremes [%v, %v], want [%v, %v]", name, h.Min(), h.Max(), slices.Min(xs), slices.Max(xs))
		}
	}
	for _, name := range []string{"single", "constant", "tiny"} {
		var h DurationHist
		xs := durationStreams()[name]
		for _, x := range xs {
			h.Add(x)
		}
		slices.Sort(xs)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got, want := h.Quantile(q), nearestRank(xs, q); got != want {
				t.Errorf("%s q=%v: got %v, want exactly %v", name, q, got, want)
			}
		}
	}
}

// TestDurationHistSubIsExact feeds one stream in sorted, reversed and
// arrival order, which must give the same histogram, then takes random
// parts of it back out with Sub: what is left holds exactly the rest, reads
// the same quantiles once clamped to the rest's extremes, and Sub leaves its
// argument untouched.
func TestDurationHistSubIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for name, xs := range durationStreams() {
		var all DurationHist
		for _, x := range xs {
			all.Add(x)
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		for _, order := range [][]time.Duration{sorted, reversed} {
			var h DurationHist
			for _, x := range order {
				h.Add(x)
			}
			requireSameHist(t, name+"/order", &h, &all)
		}

		parts := make([]DurationHist, 4)
		for _, i := range r.Perm(len(xs)) {
			parts[r.Intn(len(parts))].Add(xs[i])
		}
		before := parts[1]
		beforeCounts := countsOf(&parts[1])
		for i := 1; i < len(parts); i++ {
			all.Sub(&parts[i])
		}
		all.Sub(&DurationHist{})
		if all.n != parts[0].n || countsOf(&all) != countsOf(&parts[0]) {
			t.Fatalf("%s: after Sub n=%d, want the kept part's %d and its counts", name, all.n, parts[0].n)
		}
		// What is left may keep stale extremes; clamped to the kept part's
		// own, its quantiles are the kept part's (how the live window reads).
		kmin, kmax := parts[0].Min(), parts[0].Max()
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if got, want := min(max(all.Quantile(q), kmin), kmax), parts[0].Quantile(q); got != want {
				t.Errorf("%s q=%v: after Sub %v, kept part alone %v", name, q, got, want)
			}
		}
		if parts[1].n != before.n || parts[1].lo != before.lo || parts[1].hi != before.hi ||
			countsOf(&parts[1]) != beforeCounts {
			t.Errorf("%s: Sub modified its argument", name)
		}
	}
}

func countsOf(h *DurationHist) [durHistBins]uint32 {
	if h.counts == nil {
		return [durHistBins]uint32{}
	}
	return *h.counts
}

func requireSameHist(t *testing.T, name string, got, want *DurationHist) {
	t.Helper()
	if got.n != want.n || got.lo != want.lo || got.hi != want.hi ||
		got.min != want.min || got.max != want.max || countsOf(got) != countsOf(want) {
		t.Fatalf("%s: histograms differ: n %d/%d range [%d,%d]/[%d,%d] extremes [%v,%v]/[%v,%v]",
			name, got.n, want.n, got.lo, got.hi, want.lo, want.hi, got.min, got.max, want.min, want.max)
	}
}

// TestDurationHistEdges covers the empty histogram, out-of-range
// quantiles, negative and extreme durations, and the bucket layout.
func TestDurationHistEdges(t *testing.T) {
	var h DurationHist
	if h.N() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram: N %d Max %v p50 %v", h.N(), h.Max(), h.Quantile(0.5))
	}
	h.Add(-time.Hour)
	h.Add(math.MaxInt64)
	if got := h.Quantile(-1); got != 0 {
		t.Errorf("q<0 on {-1h, max}: got %v, want 0 (negative counts as zero)", got)
	}
	if got, want := h.Quantile(2), h.Quantile(1); got != want || h.Max() != math.MaxInt64 {
		t.Errorf("q>1 on {-1h, max}: got %v, want q=1's %v (Max %v)", got, want, h.Max())
	}

	// Bucket indices are monotone in the value, stay inside the table, and
	// each bucket's midpoint is within the bound of every value it holds.
	prev := -1
	for _, v := range []uint64{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := durHistIndex(v)
		if i < prev || i >= durHistBins {
			t.Fatalf("index(%d) = %d after %d (bins %d)", v, i, prev, durHistBins)
		}
		prev = i
		mid := float64(durHistMid(i))
		if math.Abs(mid-float64(v)) > float64(v)*DurationHistMaxRelErr {
			t.Errorf("value %d in bucket %d with midpoint %v", v, i, mid)
		}
	}
}

// TestDurationHistResetReuses checks that Reset empties a histogram in
// place and that, once the counters exist, neither Add nor Reset allocates.
func TestDurationHistResetReuses(t *testing.T) {
	var h DurationHist
	for _, x := range durationStreams()["exponential"] {
		h.Add(x)
	}
	h.Reset()
	if h.N() != 0 || *h.counts != [durHistBins]uint32{} {
		t.Fatalf("Reset left n=%d or nonzero counters", h.N())
	}
	xs := durationStreams()["whole-seconds"]
	for _, x := range xs {
		h.Add(x)
	}
	checkAgainstExact(t, "after-reset", &h, xs)

	d := time.Duration(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		d = d*7 + 3
		h.Add(d % time.Hour)
		if h.N()%64 == 0 {
			h.Reset()
		}
	}); allocs != 0 {
		t.Errorf("Add/Reset allocate %v times per run", allocs)
	}
}

// seconds converts a sample drawn in seconds to a duration.
func seconds(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }

// sortedCopy is xs in ascending order, negatives counted as zero, for
// nearestRank.
func sortedCopy(xs []time.Duration) []time.Duration {
	s := make([]time.Duration, len(xs))
	for i, x := range xs {
		s[i] = max(x, 0)
	}
	slices.Sort(s)
	return s
}

// TestP2AgainstExactQuantiles holds a heavy-tailed stream of failure-like
// durations to the stated bound at the tail quantiles the window reports.
func TestP2AgainstExactQuantiles(t *testing.T) {
	r := rng.New(1)
	var h DurationHist
	xs := make([]time.Duration, 50000)
	for i := range xs {
		xs[i] = seconds(r.LogNormal(2, 1.2))
		h.Add(xs[i])
	}
	sorted := sortedCopy(xs)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got, exact := h.Quantile(q), nearestRank(sorted, q)
		if rel := math.Abs(float64(got-exact)) / float64(exact); rel > DurationHistMaxRelErr {
			t.Errorf("q=%v: hist=%v exact=%v (rel err %.4f)", q, got, exact, rel)
		}
	}
}

// TestP2UniformMedian reads the median of a uniform stream and counts
// every sample.
func TestP2UniformMedian(t *testing.T) {
	r := rng.New(2)
	var h DurationHist
	for i := 0; i < 100000; i++ {
		h.Add(seconds(r.Float64() * 100))
	}
	if got := h.Quantile(0.5).Seconds(); math.Abs(got-50) > 1.5 {
		t.Errorf("uniform median = %vs, want ≈50s", got)
	}
	if h.N() != 100000 {
		t.Errorf("N = %d", h.N())
	}
}

// TestP2SmallSamples checks the empty histogram and a three-sample median:
// exact where buckets are one value wide, inside the bound where not.
func TestP2SmallSamples(t *testing.T) {
	var h DurationHist
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram should return 0")
	}
	for _, x := range []time.Duration{3, 1, 2} {
		h.Add(x)
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("small-sample median = %v, want 2ns", got)
	}
	var s DurationHist
	for _, x := range []time.Duration{3 * time.Second, time.Second, 2 * time.Second} {
		s.Add(x)
	}
	if got := s.Quantile(0.5); math.Abs(float64(got-2*time.Second)) > float64(2*time.Second)*DurationHistMaxRelErr {
		t.Errorf("small-sample median = %v, want 2s within the bound", got)
	}
}

// TestP2SortedAndReversedInput feeds a ramp in ascending and descending
// order: both give the same histogram, and its median is the ramp's.
func TestP2SortedAndReversedInput(t *testing.T) {
	const n = 10001
	var hs [2]DurationHist
	for d, dir := range []int{1, -1} {
		for i := 0; i < n; i++ {
			v := i
			if dir < 0 {
				v = n - 1 - i
			}
			hs[d].Add(time.Duration(v) * time.Millisecond)
		}
		got := hs[d].Quantile(0.5)
		if math.Abs(float64(got-n/2*time.Millisecond)) > float64(n/20*time.Millisecond) {
			t.Errorf("dir %d median = %v, want ≈%v", dir, got, n/2*time.Millisecond)
		}
	}
	requireSameHist(t, "ascending/descending", &hs[0], &hs[1])
}

// TestP2InvalidQuantile checks that q outside [0, 1] reads as the nearest
// end of the range rather than indexing outside the histogram.
func TestP2InvalidQuantile(t *testing.T) {
	var h DurationHist
	for i := 1; i <= 1000; i++ {
		h.Add(time.Duration(i) * time.Second)
	}
	for _, q := range []float64{0, 1, -0.5, 2, math.Inf(-1), math.Inf(1)} {
		want := h.Quantile(min(max(q, 0), 1))
		if got := h.Quantile(q); got != want || got < h.Min() || got > h.Max() {
			t.Errorf("q=%v: got %v, want %v inside [%v, %v]", q, got, want, h.Min(), h.Max())
		}
	}
}

// TestP2ConstantStream requires a constant stream to read back exactly.
func TestP2ConstantStream(t *testing.T) {
	var h DurationHist
	for i := 0; i < 1000; i++ {
		h.Add(7 * time.Second)
	}
	if got := h.Quantile(0.9); got != 7*time.Second {
		t.Errorf("constant stream quantile = %v, want 7s", got)
	}
}

// TestP2MergeAccuracy is the window's use: one histogram over a whole
// stream, one half of it taken back out. What is left holds the other
// half's count exactly, its median is within the bound of that half's
// exact median, and the histogram keeps accepting samples.
func TestP2MergeAccuracy(t *testing.T) {
	r := rng.New(4)
	var all, odd DurationHist
	var even []time.Duration
	for i := 0; i < 20000; i++ {
		x := seconds(r.LogNormal(2, 1.2))
		all.Add(x)
		if i%2 == 0 {
			even = append(even, x)
		} else {
			odd.Add(x)
		}
	}
	all.Sub(&odd)
	if all.N() != 10000 {
		t.Fatalf("N after Sub = %d, want 10000", all.N())
	}
	exact := nearestRank(sortedCopy(even), 0.5)
	got := all.Quantile(0.5)
	if rel := math.Abs(float64(got-exact)) / float64(exact); rel > DurationHistMaxRelErr {
		t.Errorf("median after Sub = %v, exact = %v (rel err %.4f)", got, exact, rel)
	}
	for i := 0; i < 1000; i++ {
		all.Add(seconds(r.LogNormal(2, 1.2)))
	}
	if all.N() != 11000 {
		t.Fatalf("N after more samples = %d, want 11000", all.N())
	}
}

// TestP2MergeSmallSides pins the small cases of taking samples out:
// nothing, everything, and a few one-value buckets.
func TestP2MergeSmallSides(t *testing.T) {
	mk := func(xs ...time.Duration) *DurationHist {
		var h DurationHist
		for _, x := range xs {
			h.Add(x)
		}
		return &h
	}
	// Empty other: no-op.
	h := mk(1, 2, 3)
	h.Sub(mk())
	if h.N() != 3 || h.Quantile(0.5) != 2 {
		t.Fatalf("Sub of empty: N=%d q=%v", h.N(), h.Quantile(0.5))
	}
	// Everything out: empty again.
	h = mk(5, 6, 7)
	h.Sub(mk(7, 5, 6))
	if h.N() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("Sub of all: N=%d q=%v", h.N(), h.Quantile(0.5))
	}
	// A few out: the exact median of what is left.
	h = mk(1, 2, 3, 4, 100)
	h.Sub(mk(3, 4, 100))
	if h.N() != 2 || h.Quantile(0.5) != 1 || h.Quantile(1) != 2 {
		t.Fatalf("small Sub: N=%d p50=%v p100=%v, want 2/1/2", h.N(), h.Quantile(0.5), h.Quantile(1))
	}
	// Refilled after emptying: reads only the new samples.
	h.Sub(mk(1, 2))
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i))
	}
	if h.N() != 100 {
		t.Fatalf("refilled N = %d, want 100", h.N())
	}
	if q := h.Quantile(0.5); q < 1 || q > 100 {
		t.Fatalf("refilled median %v outside data range", q)
	}
}

// TestP2MergeBounds puts two very different distributions in one
// histogram: the tail quantile stays inside the union's range and within
// the bound of the exact one, and taking one part out leaves the other's
// count.
func TestP2MergeBounds(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		var h, b DurationHist
		var xs []time.Duration
		add := func(x time.Duration, other *DurationHist) {
			h.Add(x)
			if other != nil {
				other.Add(x)
			}
			xs = append(xs, x)
		}
		na, nb := 5+int(r.Float64()*200), 5+int(r.Float64()*200)
		for i := 0; i < na; i++ {
			add(seconds(r.Float64()*1000), nil)
		}
		for i := 0; i < nb; i++ {
			add(seconds(0.001+r.Float64()*0.01), &b)
		}
		sorted := sortedCopy(xs)
		got, exact := h.Quantile(0.9), nearestRank(sorted, 0.9)
		if got < sorted[0] || got > sorted[len(sorted)-1] {
			t.Fatalf("trial %d: quantile %v outside [%v, %v]", trial, got, sorted[0], sorted[len(sorted)-1])
		}
		if math.Abs(float64(got-exact)) > float64(exact)*DurationHistMaxRelErr {
			t.Fatalf("trial %d: quantile %v, exact %v", trial, got, exact)
		}
		if h.N() != int64(na+nb) {
			t.Fatalf("trial %d: N = %d, want %d", trial, h.N(), na+nb)
		}
		h.Sub(&b)
		if h.N() != int64(na) {
			t.Fatalf("trial %d: N after Sub = %d, want %d", trial, h.N(), na)
		}
	}
}
