package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40})
	cases := []struct{ x, want float64 }{
		{5, 0}, {10, 0.25}, {15, 0.25}, {20, 0.5}, {40, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.P(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("P(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Min() != 10 || e.Max() != 40 {
		t.Errorf("Min/Max = %v/%v", e.Min(), e.Max())
	}
	if !almostEqual(e.Mean(), 25, 1e-12) {
		t.Errorf("Mean = %v, want 25", e.Mean())
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if got := e.Quantile(0.5); !almostEqual(got, 50, 1e-9) {
		t.Errorf("Quantile(0.5) = %v, want 50", got)
	}
	if got := e.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %v, want 0", got)
	}
	if got := e.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %v, want 100", got)
	}
	if got := e.Quantile(0.25); !almostEqual(got, 25, 1e-9) {
		t.Errorf("Quantile(0.25) = %v, want 25", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	var e ECDF
	if e.P(5) != 0 || e.Mean() != 0 || e.Max() != 0 || e.Min() != 0 || e.N() != 0 {
		t.Error("empty ECDF should return zeros")
	}
	if pts := e.Points(10); pts != nil {
		t.Error("empty ECDF Points should be nil")
	}
}

func TestECDFPointsMonotone(t *testing.T) {
	r := rng.New(1)
	var xs []float64
	for i := 0; i < 500; i++ {
		xs = append(xs, r.LogNormal(2, 1))
	}
	e := NewECDF(xs)
	pts := e.Points(50)
	if len(pts) != 50 {
		t.Fatalf("Points returned %d, want 50", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Fatalf("Points not monotone at %d: %v -> %v", i, pts[i-1], pts[i])
		}
	}
	if !almostEqual(pts[len(pts)-1][1], 1, 1e-9) {
		t.Errorf("last point P = %v, want 1", pts[len(pts)-1][1])
	}
}

// Property: P is monotone non-decreasing and bounded in [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		pl, ph := e.P(lo), e.P(hi)
		return pl >= 0 && ph <= 1 && pl <= ph
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Quantile and P are approximately inverse.
func TestQuantileInverseProperty(t *testing.T) {
	r := rng.New(9)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	e := NewECDF(xs)
	for q := 0.05; q < 1; q += 0.05 {
		x := e.Quantile(q)
		p := e.P(x)
		if p < q-0.01 {
			t.Errorf("P(Quantile(%v)) = %v, want >= %v", q, p, q)
		}
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("Pearson perfect positive = %v, %v", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("Pearson perfect negative = %v", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	r, err = Pearson(xs, flat)
	if err != nil || r != 0 {
		t.Errorf("Pearson zero-variance = %v, %v; want 0, nil", r, err)
	}
	if _, err := Pearson(xs, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestFitZipfRecoversParameters(t *testing.T) {
	// Generate exact counts y = e^b * r^-a and check recovery.
	a, b := 0.82, 17.12
	counts := make([]uint64, 5000)
	for r := 1; r <= len(counts); r++ {
		counts[r-1] = uint64(math.Exp(b) * math.Pow(float64(r), -a))
	}
	fit, err := FitZipf(counts)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.A, a, 0.03) || !almostEqual(fit.B, b, 0.2) {
		t.Errorf("FitZipf = a %.3f b %.3f, want ~%.2f ~%.2f", fit.A, fit.B, a, b)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v, want near 1 on exact data", fit.R2)
	}
}

func TestFitZipfSkipsZeros(t *testing.T) {
	counts := []uint64{100, 50, 0, 25, 0}
	if _, err := FitZipf(counts); err != nil {
		t.Fatalf("FitZipf with zeros errored: %v", err)
	}
	if _, err := FitZipf([]uint64{5}); err != ErrNoData {
		t.Errorf("single point should be ErrNoData, got %v", err)
	}
	if _, err := FitZipf([]uint64{0, 0}); err != ErrNoData {
		t.Errorf("all zeros should be ErrNoData, got %v", err)
	}
}

// TestFitZipfOnSampledData fits counts drawn from the standard library's
// Zipf sampler, noisy where TestFitZipfRecoversParameters's are exact.
func TestFitZipfOnSampledData(t *testing.T) {
	z := rand.NewZipf(rand.New(rand.NewSource(42)), 1.8, 1, 1999)
	counts := make([]uint64, 2000)
	for i := 0; i < 2_000_00; i++ {
		counts[z.Uint64()]++
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	fit, err := FitZipf(counts)
	if err != nil {
		t.Fatal(err)
	}
	if fit.A <= 0 {
		t.Errorf("fitted skew should be positive, got %v", fit.A)
	}
}

func TestRelativeChange(t *testing.T) {
	if got := RelativeChange(100, 60); !almostEqual(got, -0.4, 1e-12) {
		t.Errorf("RelativeChange(100,60) = %v, want -0.4", got)
	}
	if got := RelativeChange(0, 60); got != 0 {
		t.Errorf("RelativeChange(0,60) = %v, want 0", got)
	}
}

func TestQuantileSortedSinglePoint(t *testing.T) {
	e := NewECDF([]float64{7})
	for _, q := range []float64{0, 0.3, 0.5, 1} {
		if got := e.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) = %v, want 7", q, got)
		}
	}
}

func TestWinsorizedMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100000}
	mean := NewECDF(xs).Mean()
	win, err := WinsorizedMean(xs, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if win >= mean/100 {
		t.Errorf("winsorized mean %v should clip the outlier (raw %v)", win, mean)
	}
	if win < 2 || win > 4 {
		t.Errorf("winsorized mean %v out of plausible range", win)
	}
	if _, err := WinsorizedMean(nil, 0.9); err != ErrNoData {
		t.Errorf("err = %v", err)
	}
	// q=1 leaves the sample untouched.
	full, _ := WinsorizedMean(xs, 1)
	if math.Abs(full-mean) > 1e-9 {
		t.Errorf("q=1 winsorized mean %v != raw %v", full, mean)
	}
}

func TestKolmogorovSmirnov(t *testing.T) {
	r := rng.New(21)
	var a, b, c []float64
	for i := 0; i < 5000; i++ {
		a = append(a, r.Normal(0, 1))
		b = append(b, r.Normal(0, 1))
		c = append(c, r.Normal(3, 1))
	}
	same, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if same > 0.05 {
		t.Errorf("KS of identical distributions = %v", same)
	}
	diff, _ := KolmogorovSmirnov(a, c)
	if diff < 0.8 {
		t.Errorf("KS of shifted distributions = %v, want near 1", diff)
	}
	if _, err := KolmogorovSmirnov(nil, a); err != ErrNoData {
		t.Errorf("err = %v", err)
	}
	// Identical samples: KS exactly 0.
	if d, _ := KolmogorovSmirnov(a, a); d != 0 {
		t.Errorf("KS(a,a) = %v", d)
	}
}

// orderSensitiveSample is a sample whose float sum depends on the order of
// addition: a few huge values among many small ones.
func orderSensitiveSample() []float64 {
	r := rng.New(5)
	xs := make([]float64, 0, 3000)
	for i := 0; i < 3000; i++ {
		x := r.LogNormal(1, 2)
		if i%500 == 0 {
			x *= 1e12
		}
		xs = append(xs, x)
	}
	return xs
}

func reversed(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

// TestWinsorizedMeanIgnoresInputOrder: the estimator is a function of the
// multiset. It used to sort a copy for the cap and then sum the caller's
// slice, so the last bits followed the caller's order (shard layout, live
// versus batch arrival).
func TestWinsorizedMeanIgnoresInputOrder(t *testing.T) {
	xs := orderSensitiveSample()
	naive := func(xs []float64) (sum float64) {
		for _, x := range xs {
			sum += x
		}
		return sum
	}
	if naive(xs) == naive(reversed(xs)) {
		t.Fatal("sample does not expose summation order; the test would be vacuous")
	}
	orig := append([]float64(nil), xs...)
	want, err := WinsorizedMean(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatal("WinsorizedMean reordered its input")
		}
	}
	r := rng.New(9)
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]float64(nil), xs...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		for _, q := range []float64{1, 0.99} {
			a, _ := WinsorizedMean(xs, q)
			b, _ := WinsorizedMean(shuffled, q)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("q=%v: shuffled input gives %v, original %v", q, b, a)
			}
		}
	}
	if got, _ := WinsorizedMean(reversed(xs), 1); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("reversed input gives %v, original %v", got, want)
	}
}

// TestECDFMeanFinalizes: NewECDF sorts once, so Mean sums in ascending
// order like every other accessor reads, whatever the sample's order and
// whether or not another accessor ran first.
func TestECDFMeanFinalizes(t *testing.T) {
	xs := orderSensitiveSample()
	fwd, rev, afterQuantile := NewECDF(xs), NewECDF(reversed(xs)), NewECDF(xs)
	afterQuantile.Quantile(0.5)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	want := SortedECDF(sorted).Mean()
	for name, e := range map[string]*ECDF{"forward": fwd, "reversed": rev, "after Quantile": afterQuantile} {
		if got := e.Mean(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Mean = %v, want %v", name, got, want)
		}
	}
	if got := fwd.Quantile(0.5); got != afterQuantile.Quantile(0.5) {
		t.Errorf("Quantile after Mean = %v, want %v", got, afterQuantile.Quantile(0.5))
	}
}

func TestSortedECDFAdoptsWithoutCopy(t *testing.T) {
	backing := []float64{1, 2, 3, 4, 99}
	xs := backing[:4] // spare capacity the ECDF must not read
	e := SortedECDF(xs)
	want := NewECDF(xs)
	if e.N() != 4 || e.Quantile(0.5) != want.Quantile(0.5) || e.P(2) != want.P(2) ||
		e.Mean() != want.Mean() || e.Min() != 1 || e.Max() != 4 {
		t.Errorf("adopted ECDF disagrees with NewECDF over the same sample")
	}
	if &e.xs[0] != &xs[0] {
		t.Error("SortedECDF copied the sample")
	}
	if allocs := testing.AllocsPerRun(10, func() { SortedECDF(xs).Quantile(0.9) }); allocs > 1 {
		t.Errorf("SortedECDF + Quantile allocated %v times, want the ECDF header at most", allocs)
	}
	if SortedECDF(nil).N() != 0 || SortedECDF(nil).Mean() != 0 {
		t.Error("SortedECDF(nil) is not the empty ECDF")
	}
}
