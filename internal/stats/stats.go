// Package stats implements the statistical primitives the analysis pipeline
// needs: empirical CDFs, the live window's log-bucketed duration histogram,
// quantiles, correlation, sorting, and Zipf-law fitting (the paper fits
// failures-per-base-station to a Zipf curve with a = 0.82, b = 17.12 in
// Figure 11).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned by operations that need at least one sample.
var ErrNoData = errors.New("stats: no data")

// ECDF is an empirical cumulative distribution function over a sample. It
// is immutable once built: the zero value is empty; NewECDF (any order,
// copied and sorted once), SortedECDF (ascending, adopted) or MergedECDF
// (ascending runs, adopted without merging) build the others.
type ECDF struct {
	xs []float64
	// runs, when non-nil, holds the sample in place of xs: two or more
	// non-empty ascending runs, read where they lie.
	runs [][]float64
}

// NewECDF builds an ECDF from a sample, which it only reads: the ECDF
// holds a sorted copy.
func NewECDF(xs []float64) *ECDF {
	return &ECDF{xs: SortUnion([][]float64{xs}, 1)}
}

// SortedECDF adopts an ascending sample as an ECDF without copying or
// sorting it. The ECDF only reads xs and shares its backing array, so the
// caller must leave the elements alone for as long as the ECDF is in use.
// Handing over a slice that is not ascending makes every accessor wrong.
func SortedECDF(xs []float64) *ECDF {
	return &ECDF{xs: xs}
}

// MergedECDF adopts ascending runs as one ECDF over their union, on
// SortedECDF's terms for every run, and never merges or copies them.
// Every accessor returns the bits SortedECDF would over the runs' stable
// merge (equal values run by run, in run order): P costs one binary search
// per run; Quantile, Min, Max and Points select ranks across the runs;
// Mean walks them once in merged order, which is the merged copy's
// summation order.
func MergedECDF(runs ...[]float64) *ECDF {
	var kept [][]float64
	for _, r := range runs {
		if len(r) > 0 {
			kept = append(kept, r)
		}
	}
	switch len(kept) {
	case 0:
		return SortedECDF(nil)
	case 1:
		return SortedECDF(kept[0])
	}
	return &ECDF{runs: kept}
}

// N returns the sample size.
func (e *ECDF) N() int {
	n := len(e.xs)
	for _, r := range e.runs {
		n += len(r)
	}
	return n
}

// at returns the order statistic of 0-based rank i.
func (e *ECDF) at(i int) float64 {
	if e.runs != nil {
		return rank(e.runs, i)
	}
	return e.xs[i]
}

// P returns the fraction of samples <= x (the CDF value at x).
func (e *ECDF) P(x float64) float64 {
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
// order of the sample it was built from.
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
	if e.runs != nil {
		return mergedSum(e.runs, limit)
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
