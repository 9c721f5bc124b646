package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestSortFloatsMatchesStdlib pins the radix path to sort.Float64s on
// inputs chosen to stress it: sizes straddling the radix threshold,
// negative values, infinities, signed zeros, denormals, and heavy
// duplication (the duration-data shape the skip-constant-digit pass
// optimization targets).
func TestSortFloatsMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := [][]float64{
		nil,
		{},
		{3, 1, 2},
		{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e-308, -1e-308},
	}
	for _, n := range []int{radixMinLen - 1, radixMinLen, radixMinLen + 1, 3 * radixMinLen} {
		mixed := make([]float64, n)
		dups := make([]float64, n)
		for i := range mixed {
			mixed[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(20)-10))
			dups[i] = float64(1 + r.Intn(300)) // integral seconds, like durations
		}
		cases = append(cases, mixed, dups)
	}
	for _, xs := range cases {
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		got := append([]float64(nil), xs...)
		SortFloats(got)
		if len(got) != len(want) {
			t.Fatalf("length changed: %d -> %d", len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] || math.Signbit(got[i]) != math.Signbit(want[i]) {
				t.Fatalf("n=%d index %d: got %v want %v", len(xs), i, got[i], want[i])
			}
		}
	}
}

// TestSortFloatsNaNFallback checks NaN inputs still end up sorted the way
// sort.Float64s leaves them (NaNs first in Go's float ordering).
func TestSortFloatsNaNFallback(t *testing.T) {
	xs := make([]float64, radixMinLen)
	for i := range xs {
		xs[i] = float64(radixMinLen - i)
	}
	xs[17] = math.NaN()
	SortFloats(xs)
	if !math.IsNaN(xs[0]) {
		t.Errorf("NaN not sorted first: %v", xs[0])
	}
	if !sort.Float64sAreSorted(xs) {
		t.Error("fallback output not sorted")
	}
}

// TestMergeSortedIsTheSortOfTheUnion covers empty parts, one part, heavy
// duplication across parts, and parts of very different lengths.
func TestMergeSortedIsTheSortOfTheUnion(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	if got := MergeSorted(); len(got) != 0 {
		t.Fatalf("MergeSorted() = %v", got)
	}
	for trial := 0; trial < 200; trial++ {
		parts := make([][]float64, r.Intn(7))
		var want []float64
		for i := range parts {
			n := r.Intn(50)
			if r.Intn(4) == 0 {
				n = 0
			} else if r.Intn(6) == 0 {
				n = 2000
			}
			for ; n > 0; n-- {
				parts[i] = append(parts[i], float64(r.Intn(300))/4)
			}
			sort.Float64s(parts[i])
			want = append(want, parts[i]...)
		}
		sort.Float64s(want)
		before := make([][]float64, len(parts))
		for i := range parts {
			before[i] = append([]float64(nil), parts[i]...)
		}
		got := MergeSorted(parts...)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d elements, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d index %d: got %v want %v", trial, i, got[i], want[i])
			}
		}
		for i := range parts {
			for j := range parts[i] {
				if parts[i][j] != before[i][j] {
					t.Fatalf("trial %d: MergeSorted modified part %d", trial, i)
				}
			}
		}
		if len(parts) == 1 && len(got) > 0 && &got[0] == &parts[0][0] {
			t.Fatal("MergeSorted of one part returned the part itself, not a new slice")
		}
	}
}

// TestSortFloatsConstantSample covers the radix path with every digit
// shared: nothing is scattered and no scratch buffer is needed.
func TestSortFloatsConstantSample(t *testing.T) {
	xs := make([]float64, 2*radixMinLen)
	for i := range xs {
		xs[i] = 12.5
	}
	SortFloats(xs)
	for i, x := range xs {
		if x != 12.5 {
			t.Fatalf("index %d: got %v", i, x)
		}
	}
}

// TestSortCountsMatchesSortFloats pins the counting sort to SortFloats on
// whole-number samples: mostly zeros (the zero-padded per-phone counts),
// values on both sides of the histogram's end at len(xs), a tail far past
// it, and sizes on both sides of SortFloats' own radix threshold.
func TestSortCountsMatchesSortFloats(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cases := [][]float64{nil, {0}, {7}, {3, 0, 3, 1}, {2, 1, 0}}
	for _, n := range []int{10, 1000, radixMinLen, 5 * radixMinLen} {
		padded := make([]float64, n)
		for i := 0; i < n/4; i++ {
			padded[i] = float64(1 + r.Intn(40))
		}
		padded[0] = float64(50 * n) // one device far past the histogram
		edges := make([]float64, n)
		for i := range edges {
			edges[i] = float64(n - 2 + r.Intn(4)) // n-2 .. n+1
		}
		tail := make([]float64, n)
		for i := range tail {
			tail[i] = math.Floor(math.Exp(r.Float64() * math.Log(float64(10*n))))
		}
		cases = append(cases, padded, edges, tail)
	}
	for _, xs := range cases {
		want := append([]float64(nil), xs...)
		SortFloats(want)
		got := append([]float64(nil), xs...)
		SortCounts(got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d index %d: got %v want %v", len(xs), i, got[i], want[i])
			}
		}
	}
}

// durationSample is n failure durations in seconds, shaped like the
// fleet's: log-normal around ten seconds with a multi-hour tail, each a
// whole number of nanoseconds.
func durationSample(n int) []float64 {
	r := rand.New(rand.NewSource(11))
	xs := make([]float64, n)
	for i := range xs {
		ns := math.Round(math.Exp(2.3+1.8*r.NormFloat64()) * 1e9)
		xs[i] = ns / 1e9
	}
	return xs
}

// BenchmarkSortFloats sorts a 400 k-element duration-shaped sample, about
// one kind's share of a live render's settle at the bench's fleet shape.
func BenchmarkSortFloats(b *testing.B) {
	src := durationSample(400_000)
	xs := make([]float64, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, src)
		SortFloats(xs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/element")
}
