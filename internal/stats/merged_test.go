package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// MergeSorted is the oracle MergedECDF is checked against: the stable
// merge of ascending runs into one new slice, equal values run by run, in
// run order. It takes the smallest head each step, the first run's on a
// tie: one scan of the heads per element, slow and obviously right.
func MergeSorted(runs ...[]float64) []float64 {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	out := make([]float64, 0, n)
	heads := make([]int, len(runs))
	for len(out) < n {
		m := -1
		for i, r := range runs {
			if heads[i] < len(r) && (m < 0 || r[heads[i]] < runs[m][heads[m]]) {
				m = i
			}
		}
		out = append(out, runs[m][heads[m]])
		heads[m]++
	}
	return out
}

// sameECDF fails t unless got answers every accessor with exactly the bits
// want (a plain ECDF) does. P is probed at up to 200 sample values, the
// floats either side of them, and beyond the sample.
func sameECDF(t *testing.T, got, want *ECDF) {
	t.Helper()
	same := func(what string, g, w float64) {
		t.Helper()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s = %v (%#x), want %v (%#x)", what, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	n := want.N()
	if got.N() != n {
		t.Fatalf("N = %d, want %d", got.N(), n)
	}
	same("Mean", got.Mean(), want.Mean())
	same("Min", got.Min(), want.Min())
	same("Max", got.Max(), want.Max())
	for _, q := range []float64{-1, 0, 0.01, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 0.9, 0.99, 1, 2} {
		same("Quantile", got.Quantile(q), want.Quantile(q))
		same("WinsorizedMean", got.WinsorizedMean(q), want.WinsorizedMean(q))
	}
	probes := []float64{math.Inf(-1), -1e9, 0, 30, 1e9, math.Inf(1)}
	for i := 0; i < n; i += 1 + n/200 {
		x := want.xs[i]
		probes = append(probes, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	for _, x := range probes {
		same("P", got.P(x), want.P(x))
	}
	for _, k := range []int{-1, 0, 1, 2, 3, 7, 12, 64, n - 1, n, n + 1} {
		gp, wp := got.Points(k), want.Points(k)
		if len(gp) != len(wp) {
			t.Fatalf("Points(%d): %d points, want %d", k, len(gp), len(wp))
		}
		for i := range wp {
			same("Points x", gp[i][0], wp[i][0])
			same("Points p", gp[i][1], wp[i][1])
		}
	}
}

// checkMerged compares MergedECDF(runs...) with the ECDF of the merged copy,
// and checks the runs come back untouched.
func checkMerged(t *testing.T, runs [][]float64) {
	t.Helper()
	before := make([][]float64, len(runs))
	for i := range runs {
		before[i] = append([]float64(nil), runs[i]...)
	}
	merged := MergeSorted(runs...)
	sameECDF(t, MergedECDF(runs...), SortedECDF(merged))

	for i := range runs {
		for j := range runs[i] {
			if math.Float64bits(runs[i][j]) != math.Float64bits(before[i][j]) {
				t.Fatalf("run %d modified at %d", i, j)
			}
		}
	}
}

// TestMergedECDFMatchesMergedCopy covers empty runs, a single run, ties
// within and across runs, signed zeros, and one long run beside short ones.
func TestMergedECDFMatchesMergedCopy(t *testing.T) {
	negZero := math.Copysign(0, -1)
	fixed := [][][]float64{
		nil,
		{{}, {}},
		{{1, 2, 3}},
		{{}, {1, 2, 3}, {}},
		{{1, 1, 1}, {1, 1}, {1}},
		{{negZero, 0, 0, 5}, {0, negZero, 5, 5}, {negZero}},
		{{0, 0}, {0}, {0, 0, 0}},
		{{1, 3, 5, 7}, {2, 4, 6, 8}, {0, 9}},
	}
	for _, runs := range fixed {
		checkMerged(t, runs)
	}

	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		runs := make([][]float64, 1+r.Intn(7))
		for i := range runs {
			n := r.Intn(40)
			switch r.Intn(5) {
			case 0:
				n = 0
			case 1:
				n = 1000 + r.Intn(1000) // the long run beside short ones
			}
			scale := []float64{1, 4, 1000}[r.Intn(3)]
			for ; n > 0; n-- {
				runs[i] = append(runs[i], float64(r.Intn(400))/scale)
			}
			sort.Float64s(runs[i])
		}
		checkMerged(t, runs)
	}
}

// TestMergeSortedIsStable pins the oracle's tie order, which rank selection
// relies on: equal values come out run by run, in run order. Signed zeros
// make the order visible.
func TestMergeSortedIsStable(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		runs [][]float64
		want []float64
	}{
		{[][]float64{{-1, 0, 1}, {negZero, negZero}, {-2, 0}}, []float64{-2, -1, 0, negZero, negZero, 0, 1}},
		// The later run's smaller head must not carry its zero past the
		// earlier run's.
		{[][]float64{{0}, {-1, negZero}}, []float64{-1, 0, negZero}},
	}
	for _, c := range cases {
		got := MergeSorted(c.runs...)
		for i := range c.want {
			if math.Float64bits(got[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("MergeSorted(%v) index %d: got %v, want %v (whole merge %v)", c.runs, i, got[i], c.want[i], got)
			}
		}
		checkMerged(t, c.runs)
	}
}

// FuzzMergedECDF decodes arbitrary bytes into ascending runs (0xFF starts a
// new run; other bytes are small values with heavy ties, signed zeros
// included) and requires MergedECDF to answer exactly as the merged copy.
func FuzzMergedECDF(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{1, 0xFF, 1, 0xFF, 1})
	f.Add([]byte{0, 0x80, 0xFF, 0x80, 0, 7, 0xFF, 0xFF, 200, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		runs := [][]float64{nil}
		for _, b := range data {
			if b == 0xFF {
				runs = append(runs, nil)
				continue
			}
			x := float64(b&0x7F) / 8
			if b&0x80 != 0 {
				x = -x // 0x80 is negative zero
			}
			last := len(runs) - 1
			runs[last] = append(runs[last], x)
		}
		for _, run := range runs {
			sort.Float64s(run)
		}
		checkMerged(t, runs)
	})
}
