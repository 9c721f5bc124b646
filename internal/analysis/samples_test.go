package analysis

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// runSamplesProgram interprets prog as an interleaving of add / merge /
// settle on one sample and checks the type's whole contract: after every
// settle or merge the slice is ascending and fully settled; a merge reads
// its runs only and leaves one exact-size slice; after a final settle the
// sample equals sort.Float64s of everything that went in; a further settle
// changes nothing and allocates nothing. Each op is one opcode byte, and
// all but settle take one argument byte:
//
//	0 add one value
//	1 add a run of up to ~10k values (crosses the radix-sort threshold)
//	2 settle, then merge one to three settled runs, as runPass does
//	3 settle
//
// Run values are quarter-second multiples in [0, 1024), so duplicates —
// within the tail, and between tail and prefix — are the common case.
func runSamplesProgram(t *testing.T, prog []byte) {
	t.Helper()
	var s samples
	var want []float64
	lcg := uint32(1)
	next := func() float64 {
		lcg = lcg*1664525 + 1013904223
		return float64(lcg>>20) / 4
	}
	for i := 0; i < len(prog); i++ {
		op := prog[i] % 4
		if op == 3 {
			s.settle()
			if s.sorted != len(s.xs) || !sort.Float64sAreSorted(s.xs) {
				t.Fatalf("op %d: settle left sorted=%d len=%d ascending=%v", i, s.sorted, len(s.xs), sort.Float64sAreSorted(s.xs))
			}
			continue
		}
		i++
		if i == len(prog) {
			break
		}
		arg := int(prog[i])
		switch op {
		case 0:
			x := float64(arg) * 5 // 0 … 1275: from below every run value to above them all
			s.add(x)
			want = append(want, x)
		case 1:
			for n := arg * 40; n > 0; n-- {
				x := next()
				s.add(x)
				want = append(want, x)
			}
		case 2:
			s.settle()
			runs := make([]*samples, 1+arg%3)
			var before [][]float64
			grew := false
			for r := range runs {
				runs[r] = &samples{}
				for n := arg / (r + 1); n > 0; n-- {
					runs[r].add(next())
				}
				runs[r].settle()
				before = append(before, append([]float64(nil), runs[r].xs...))
				want = append(want, runs[r].xs...)
				grew = grew || len(runs[r].xs) > 0
			}
			s.merge(runs)
			for r := range runs {
				if !reflect.DeepEqual(runs[r].xs, before[r]) {
					t.Fatalf("op %d: merge modified run %d", i, r)
				}
			}
			if s.sorted != len(s.xs) || !sort.Float64sAreSorted(s.xs) {
				t.Fatalf("op %d: merge left sorted=%d len=%d", i, s.sorted, len(s.xs))
			}
			if grew && cap(s.xs) != len(s.xs) {
				t.Fatalf("op %d: merged sample has cap %d for %d elements", i, cap(s.xs), len(s.xs))
			}
		}
	}

	s.settle()
	sort.Float64s(want)
	if got := s.ascending(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("settled sample is not the sorted multiset: %d elements, want %d", len(got), len(want))
	}
	if allocs := testing.AllocsPerRun(5, s.settle); allocs != 0 {
		t.Fatalf("settle with an empty tail allocated %v times", allocs)
	}
	if got := s.ascending(); len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatal("a second settle changed the sample")
	}
}

func TestSamplesSettleProperty(t *testing.T) {
	fixed := [][]byte{
		nil,
		{3},
		{0, 7},
		{1, 200, 3, 1, 200},             // big tail into a big prefix, both past the radix threshold
		{1, 120, 3, 0, 0, 0, 0},         // tail entirely below the prefix
		{1, 120, 3, 0, 255, 0, 255},     // tail entirely above the prefix
		{2, 9, 2, 8, 3, 2, 255, 2, 254}, // one- and three-run merges, like a pass Merge
		{2, 0, 1, 120, 2, 3},            // an empty run, then a radix-sized tail settled by a merge
	}
	for _, prog := range fixed {
		runSamplesProgram(t, prog)
	}
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		prog := make([]byte, r.Intn(40))
		r.Read(prog)
		runSamplesProgram(t, prog)
	}
}

func FuzzSamplesSettle(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 3, 0, 4, 2, 6})
	f.Add([]byte{1, 110, 3, 1, 3, 3, 2, 255})
	f.Add([]byte{2, 1, 2, 2, 3, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64] // a run is up to 10k values: keep one input under a few ms
		}
		runSamplesProgram(t, prog)
	})
}

// TestSampleReadBeforeSettlePanics pins the guard every finisher goes
// through: an unsettled sample is refused, not rendered in arrival order.
func TestSampleReadBeforeSettlePanics(t *testing.T) {
	var s samples
	s.add(2)
	s.add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("ascending() on an unsettled sample did not panic")
		}
	}()
	s.ascending()
}
