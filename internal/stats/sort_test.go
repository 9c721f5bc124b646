package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
	// Buckets of tens of thousands of keys, every byte of the key varying.
	cases = append(cases, durationSample(200_000))
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

// unionCases are SortUnion inputs: the signed zeros, infinities and
// subnormals, heavy duplicates, empty parts, a union just either side of
// radixMinLen, a spike of nearly equal values, and duration-shaped parts
// split unevenly, in one part or many, as a pass hands them over.
func unionCases() [][][]float64 {
	r := rand.New(rand.NewSource(9))
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074, 1, -1, math.MaxFloat64, -math.MaxFloat64}
	cases := [][][]float64{nil, {nil}, {{}, {}}, {special}, {special[:5], nil, special[5:]}}
	for _, n := range []int{radixMinLen - 1, radixMinLen, 3 * radixMinLen} {
		parts := make([][]float64, 1+r.Intn(8))
		for i := 0; i < n; i++ {
			p := r.Intn(len(parts))
			x := special[r.Intn(len(special))]
			if r.Intn(3) > 0 {
				x = float64(r.Intn(50)) / 4
			}
			parts[p] = append(parts[p], x)
		}
		cases = append(cases, parts)
	}
	// Three in four values of one top-level bucket sit within 2^-32 of
	// 1.0: too close for the bucket's second digit to split them.
	spike := make([]float64, 20_000)
	for i := range spike {
		spike[i] = 1 + float64(r.Intn(1<<20))*0x1p-52
		if i%4 == 0 {
			spike[i] = 1 + r.Float64()/16
		}
	}
	cases = append(cases, [][]float64{spike[:5_000], spike[5_000:]})
	durations := durationSample(100_000)
	for _, cut := range [][]int{{0}, {0, 1, 50_000, 50_000, 99_999}, {0, 4_000, 4_100, 30_000, 60_000, 60_001, 90_000}} {
		var parts [][]float64
		for i, at := range cut {
			end := len(durations)
			if i+1 < len(cut) {
				end = cut[i+1]
			}
			parts = append(parts, durations[at:end])
		}
		cases = append(cases, parts)
	}
	return cases
}

// TestSplit pins the one cut rule on float parts in SortUnion's shapes:
// empty parts, k below one and past the element count, cuts inside a part,
// and then every union case at k from -1 to 9.
func TestSplit(t *testing.T) {
	for _, c := range []struct {
		name  string
		parts [][]float64
		k     int
		want  [][][]float64
	}{
		{"nothing", nil, 3, nil},
		{"empty parts", [][]float64{{}, nil, {}}, 2, nil},
		{"k below one", [][]float64{{1, 2}, {3}}, 0, [][][]float64{{{1, 2}, {3}}}},
		{"k past n", [][]float64{{1}, nil, {2, 3}}, 5, [][][]float64{{{1}}, {{2}}, {{3}}}},
		{"cut inside a part", [][]float64{{1, 2, 3, 4, 5}, {6, 7}}, 2,
			[][][]float64{{{1, 2, 3}}, {{4, 5}, {6, 7}}}},
		{"uneven parts", [][]float64{{1}, {}, {2, 3, 4, 5, 6, 7, 8}, {9, 10}}, 3,
			[][][]float64{{{1}, {2, 3}}, {{4, 5, 6}}, {{7, 8}, {9, 10}}}},
	} {
		got := Split(c.parts, c.k)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Split(%v, %d) = %v, want %v", c.name, c.parts, c.k, got, c.want)
		}
		checkSplit(t, c.parts, c.k, got)
	}
	for _, parts := range unionCases() {
		for k := -1; k <= 9; k++ {
			checkSplit(t, parts, k, Split(parts, k))
		}
	}
}

// checkSplit asserts Split's contract on one result: min(max(k, 1), n)
// runs, none empty and no two differing in length by more than one, every
// sub-slice non-empty and capped at its length, and the runs concatenated
// are the parts concatenated, element for element in the parts' memory.
func checkSplit(t *testing.T, parts [][]float64, k int, runs [][][]float64) {
	t.Helper()
	var each []*float64
	for _, p := range parts {
		for i := range p {
			each = append(each, &p[i])
		}
	}
	if want := min(max(k, 1), len(each)); len(runs) != want {
		t.Fatalf("Split(k=%d) of %d elements: %d runs, want %d", k, len(each), len(runs), want)
	}
	at, lo, hi := 0, len(each), 0
	for r, run := range runs {
		n := 0
		for _, sub := range run {
			if len(sub) == 0 || cap(sub) != len(sub) {
				t.Fatalf("Split(k=%d): run %d has a sub-slice of len %d cap %d", k, r, len(sub), cap(sub))
			}
			for i := range sub {
				if at == len(each) || &sub[i] != each[at] {
					t.Fatalf("Split(k=%d): run %d strays from the concatenation at element %d", k, r, at)
				}
				at++
			}
			n += len(sub)
		}
		lo, hi = min(lo, n), max(hi, n)
	}
	if at != len(each) {
		t.Fatalf("Split(k=%d): runs hold %d of %d elements", k, at, len(each))
	}
	if len(runs) > 0 && (lo == 0 || hi-lo > 1) {
		t.Fatalf("Split(k=%d): run lengths span [%d, %d]", k, lo, hi)
	}
}

// checkSortUnion requires SortUnion(parts, workers) to be SortFloats of the
// concatenation bit for bit, in a slice of exactly that length, and to
// leave the parts as they were.
func checkSortUnion(t *testing.T, parts [][]float64, workers int) {
	t.Helper()
	var want []float64
	before := make([][]float64, len(parts))
	for i, p := range parts {
		want = append(want, p...)
		before[i] = append([]float64(nil), p...)
	}
	SortFloats(want)
	got := SortUnion(parts, workers)
	if len(got) != len(want) || cap(got) != len(want) {
		t.Fatalf("%d workers: len %d cap %d, want %d", workers, len(got), cap(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%d workers, %d elements: index %d is %v (%#x), want %v (%#x)",
				workers, len(want), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	for i, p := range parts {
		for j := range p {
			if math.Float64bits(p[j]) != math.Float64bits(before[i][j]) {
				t.Fatalf("%d workers: part %d modified at %d", workers, i, j)
			}
		}
	}
}

// TestSortUnionIsSortFloatsOfTheConcatenation runs every union case at one
// to eight workers, more workers than the union has radixMinLen-sized
// shares included.
func TestSortUnionIsSortFloatsOfTheConcatenation(t *testing.T) {
	for _, parts := range unionCases() {
		for w := 1; w <= 8; w++ {
			checkSortUnion(t, parts, w)
		}
	}
}

// TestSortUnionNaNFallback checks a union holding NaN is the concatenation
// under sort.Float64s, NaNs first, as SortFloats leaves it.
func TestSortUnionNaNFallback(t *testing.T) {
	parts := [][]float64{durationSample(3000), durationSample(3000)}
	parts[1][17] = math.NaN()
	got := SortUnion(parts, 2)
	if !math.IsNaN(got[0]) || !sort.Float64sAreSorted(got) {
		t.Fatalf("NaN union sorted to %v … (ascending %v)", got[:3], sort.Float64sAreSorted(got))
	}
	checkSortUnion(t, parts, 2)
}

// FuzzSortUnion decodes arbitrary bytes into one to eight parts and a
// worker count and requires SortUnion to be SortFloats of the
// concatenation. The first byte picks the part count, the second the
// workers; then each op is an opcode byte and one argument byte:
//
//	0 append a special value (±0, ±Inf, subnormals, ±MaxFloat64, NaN …)
//	1 append arg*40 copies of one quarter-second value (duplicates)
//	2 append arg*40 duration-shaped values (crosses radixMinLen)
//	3 move on to part arg mod the part count
func FuzzSortUnion(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 1, 0, 1, 3, 1, 0, 0, 2, 110, 3, 2, 1, 5})
	f.Add([]byte{7, 3, 2, 60, 3, 4, 2, 50, 3, 6, 1, 200, 0, 2})
	f.Add([]byte{1, 1, 2, 120, 0, 12})
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.25, math.NaN()}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		parts := make([][]float64, 1+int(data[0])%8)
		workers := 1 + int(data[1])%8
		data = data[2:]
		if len(data) > 32 {
			data = data[:32] // a run is up to 10k values: keep one input under a few ms
		}
		p, lcg := 0, uint32(1)
		for i := 0; i+1 < len(data); i += 2 {
			arg := int(data[i+1])
			switch data[i] % 4 {
			case 0:
				parts[p] = append(parts[p], special[arg%len(special)])
			case 1:
				x := float64(arg) / 4
				for n := arg * 40; n > 0; n-- {
					parts[p] = append(parts[p], x)
				}
			case 2:
				for n := arg * 40; n > 0; n-- {
					lcg = lcg*1664525 + 1013904223
					parts[p] = append(parts[p], math.Exp(float64(lcg>>8)/(1<<24)*12-2))
				}
			case 3:
				p = arg % len(parts)
			}
		}
		checkSortUnion(t, parts, workers)
	})
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

// BenchmarkSortUnion sorts the union of an 800 k-element duration-shaped
// sample cut into 2 and into 4 equal parts, on as many workers: a batch
// pass's Figure-4 sample at the bench's size, handed over by that many
// pass workers.
func BenchmarkSortUnion(b *testing.B) {
	src := durationSample(800_000)
	for _, k := range []int{2, 4} {
		parts := make([][]float64, k)
		for i := range parts {
			parts[i] = src[i*len(src)/k : (i+1)*len(src)/k]
		}
		b.Run(fmt.Sprintf("parts=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = SortUnion(parts, k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/element")
		})
	}
}

var sink []float64

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
