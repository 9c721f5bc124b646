// Package stats implements the statistical primitives the analysis pipeline
// needs: empirical CDFs, histograms, quantiles, correlation, and Zipf-law
// fitting (the paper fits failures-per-base-station to a Zipf curve with
// a = 0.82, b = 17.12 in Figure 11).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned by operations that need at least one sample.
var ErrNoData = errors.New("stats: no data")

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	Median float64
	Sum    float64
}

// Summarize computes descriptive statistics. It returns ErrNoData for an
// empty sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoData
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = SortedECDF(sorted).Quantile(0.5)
	return s, nil
}

// ECDF is an empirical cumulative distribution function over a sample.
// The zero value is empty; Add then Finalize, or build with NewECDF (any
// order, copied), SortedECDF (ascending, adopted) or MergedECDF (ascending
// runs, adopted without merging).
type ECDF struct {
	xs []float64
	// runs, when non-nil, holds the sample in place of xs: two or more
	// non-empty ascending runs, read where they lie.
	runs      [][]float64
	finalized bool
}

// NewECDF builds a finalized ECDF from a sample (which it copies).
func NewECDF(xs []float64) *ECDF {
	e := &ECDF{xs: append([]float64(nil), xs...)}
	e.Finalize()
	return e
}

// SortedECDF adopts an ascending sample as a finalized ECDF without copying
// or sorting it. The ECDF only reads xs and shares its backing array, so the
// caller must leave the elements alone for as long as the ECDF is in use;
// Add reallocates instead of growing into the caller's spare capacity.
// Handing over a slice that is not ascending makes every accessor wrong.
func SortedECDF(xs []float64) *ECDF {
	return &ECDF{xs: xs[:len(xs):len(xs)], finalized: true}
}

// MergedECDF adopts ascending runs as one finalized ECDF over their union,
// on SortedECDF's terms for every run, and never merges or copies them.
// Every accessor returns the bits SortedECDF(MergeSorted(runs...)) would:
// P costs one binary search per run; Quantile, Min, Max and Points select
// ranks across the runs; Mean walks them once in merged order, which is
// the merged copy's summation order. Add merges them first.
func MergedECDF(runs ...[]float64) *ECDF {
	var kept [][]float64
	for _, r := range runs {
		if len(r) > 0 {
			kept = append(kept, r[:len(r):len(r)])
		}
	}
	switch len(kept) {
	case 0:
		return SortedECDF(nil)
	case 1:
		return SortedECDF(kept[0])
	}
	return &ECDF{runs: kept, finalized: true}
}

// Add appends a sample point. Calling Add after Finalize un-finalizes.
func (e *ECDF) Add(x float64) {
	if e.runs != nil {
		e.xs, e.runs = MergeSorted(e.runs...), nil
	}
	e.xs = append(e.xs, x)
	e.finalized = false
}

// Finalize sorts the sample; it is idempotent.
func (e *ECDF) Finalize() {
	if !e.finalized {
		SortFloats(e.xs)
		e.finalized = true
	}
}

// N returns the sample size.
func (e *ECDF) N() int {
	n := len(e.xs)
	for _, r := range e.runs {
		n += len(r)
	}
	return n
}

// at returns the order statistic of 0-based rank i; e is finalized.
func (e *ECDF) at(i int) float64 {
	if e.runs != nil {
		return rank(e.runs, i)
	}
	return e.xs[i]
}

// P returns the fraction of samples <= x (the CDF value at x).
func (e *ECDF) P(x float64) float64 {
	e.Finalize()
	n := e.N()
	if n == 0 {
		return 0
	}
	x = math.Nextafter(x, math.Inf(1))
	i := sort.SearchFloat64s(e.xs, x)
	for _, r := range e.runs {
		i += sort.SearchFloat64s(r, x)
	}
	return float64(i) / float64(n)
}

// Quantile returns the q-th quantile (0 <= q <= 1) with linear
// interpolation between order statistics.
func (e *ECDF) Quantile(q float64) float64 {
	e.Finalize()
	n := e.N()
	switch {
	case n == 0:
		return 0
	case q <= 0:
		return e.at(0)
	case q >= 1:
		return e.at(n - 1)
	}
	// Each float64(...) rounds a product before it is added, which
	// forbids fusing the two into one FMA (arm64): same bits on every GOARCH.
	pos := float64(q * float64(n-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return e.at(lo)
	}
	frac := pos - float64(lo)
	return float64(e.at(lo)*(1-frac)) + float64(e.at(hi)*frac)
}

// Mean returns the sample mean (0 for an empty sample). It sums in
// ascending order, so the result depends on the multiset only, not on the
// order the points were added in.
func (e *ECDF) Mean() float64 {
	n := e.N()
	if n == 0 {
		return 0
	}
	return e.sumUpTo(math.Inf(1)) / float64(n)
}

// WinsorizedMean returns the mean with values above the q-quantile clipped
// to it (0 for an empty sample), summed in ascending order.
func (e *ECDF) WinsorizedMean(q float64) float64 {
	n := e.N()
	if n == 0 {
		return 0
	}
	return e.sumUpTo(e.Quantile(q)) / float64(n)
}

// sumUpTo sums the sample in ascending order, counting every value above
// limit as limit.
func (e *ECDF) sumUpTo(limit float64) float64 {
	e.Finalize()
	if e.runs != nil {
		_, sum := mergeWalk(e.runs, nil, limit)
		return sum
	}
	sum := 0.0
	for _, x := range e.xs {
		sum += min(x, limit)
	}
	return sum
}

// Max returns the sample maximum (0 for an empty sample).
func (e *ECDF) Max() float64 { return e.Quantile(1) }

// Min returns the sample minimum (0 for an empty sample).
func (e *ECDF) Min() float64 { return e.Quantile(0) }

// Points returns up to n evenly spaced (x, P(X<=x)) points for plotting.
func (e *ECDF) Points(n int) [][2]float64 {
	e.Finalize()
	size := e.N()
	if size == 0 || n <= 0 {
		return nil
	}
	if n > size {
		n = size
	}
	pts := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (size - 1) / max(n-1, 1)
		pts = append(pts, [2]float64{e.at(idx), float64(idx+1) / float64(size)})
	}
	return pts
}

// Histogram counts samples into equal-width bins over [lo, hi).
type Histogram struct {
	Lo, Hi   float64
	Counts   []uint64
	Under    uint64 // samples below Lo
	Over     uint64 // samples at or above Hi
	binWidth float64
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, bins), binWidth: (hi - lo) / float64(bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / h.binWidth)
		if i >= len(h.Counts) { // guard against float rounding at the edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of samples recorded, including out-of-range ones.
func (h *Histogram) Total() uint64 {
	t := h.Under + h.Over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.binWidth
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples. It returns 0 if either sample has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrNoData
	}
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy) // float64(...): no FMA, as in Quantile
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// ZipfFit holds fitted Zipf-law parameters for counts y(r) ≈ e^b · r^(-a)
// over ranks r = 1..n, i.e. ln y = b − a·ln r, matching Figure 11's (a, b).
type ZipfFit struct {
	A  float64 // slope magnitude (skew)
	B  float64 // intercept in log space
	R2 float64 // coefficient of determination in log-log space
}

// FitZipf fits a Zipf law to counts already sorted in descending order.
// Zero counts are excluded (log undefined). Needs at least two positive
// counts.
func FitZipf(sortedCounts []uint64) (ZipfFit, error) {
	var lx, ly []float64
	for i, c := range sortedCounts {
		if c == 0 {
			continue
		}
		lx = append(lx, math.Log(float64(i+1)))
		ly = append(ly, math.Log(float64(c)))
	}
	if len(lx) < 2 {
		return ZipfFit{}, ErrNoData
	}
	slope, intercept, r2 := linearRegression(lx, ly)
	return ZipfFit{A: -slope, B: intercept, R2: r2}, nil
}

// linearRegression returns least-squares slope, intercept and R² for y on x.
func linearRegression(xs, ys []float64) (slope, intercept, r2 float64) {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy) // float64(...): no FMA, as in Quantile
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 {
		return 0, my, 0
	}
	slope = sxy / sxx
	intercept = my - float64(slope*mx)
	if syy == 0 {
		return slope, intercept, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2
}

// WeightedMean returns the mean of xs weighted by ws.
func WeightedMean(xs, ws []float64) (float64, error) {
	if len(xs) != len(ws) {
		return 0, errors.New("stats: length mismatch")
	}
	var sum, wsum float64
	for i := range xs {
		sum += xs[i] * ws[i]
		wsum += ws[i]
	}
	if wsum == 0 {
		return 0, ErrNoData
	}
	return sum / wsum, nil
}

// RelativeChange returns (after-before)/before, the metric used throughout
// §4.3 ("reduced 40% cellular failures"). A negative result is a reduction.
func RelativeChange(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (after - before) / before
}

// WinsorizedMean returns the mean with values above the q-quantile clipped
// to it. Simulation-scale fleets cannot average away a 25-hour outage tail
// the way 2.3 billion events can; comparisons of means across runs use a
// winsorized estimator to keep the tail from drowning the effect. It sums
// in ascending order, so the result depends on the multiset only, not on
// the order of xs (which it does not modify).
func WinsorizedMean(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	return NewECDF(xs).WinsorizedMean(q), nil
}

// KolmogorovSmirnov returns the KS statistic (the maximum CDF distance)
// between two samples — how far apart two measured distributions are,
// used to quantify figure-level agreement between runs.
func KolmogorovSmirnov(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrNoData
	}
	ea, eb := NewECDF(a), NewECDF(b)
	maxD := 0.0
	for _, xs := range [][]float64{a, b} {
		for _, x := range xs {
			d := math.Abs(ea.P(x) - eb.P(x))
			if d > maxD {
				maxD = d
			}
		}
	}
	return maxD, nil
}
