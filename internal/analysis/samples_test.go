package analysis

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/failure"
	"repro/internal/trace"
)

// runSamplesProgram interprets prog as an interleaving of add / union /
// settle on one sample and checks the type's whole contract: after every
// settle or union the slice is ascending and nothing is left unsorted; a
// union reads the other samples only and leaves one exact-size slice;
// after a final settle the sample equals sort.Float64s of everything that
// went in; a further settle changes nothing and allocates nothing. Each op
// is one opcode byte, and all but settle take one argument byte:
//
//	0 add one value
//	1 add a run of up to ~10k values (crosses the radix-sort threshold)
//	2 take the union with one to three unsorted samples, on one to four
//	  workers, as a visitor's Merge does
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
	sorted := func(op int, what string) {
		t.Helper()
		if s.len() != len(s.xs) || !sort.Float64sAreSorted(s.xs) {
			t.Fatalf("op %d: %s left %d of %d elements sorted, ascending=%v", op, what, len(s.xs), s.len(), sort.Float64sAreSorted(s.xs))
		}
	}
	for i := 0; i < len(prog); i++ {
		op := prog[i] % 4
		if op == 3 {
			s.settle()
			sorted(i, "settle")
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
			others := make([]*samples, 1+arg%3)
			var before [][]float64
			for r := range others {
				others[r] = &samples{}
				for n := (arg * 40) / (r + 1); n > 0; n-- {
					x := next()
					others[r].add(x)
					want = append(want, x)
				}
				before = append(before, slices.Concat(others[r].parts(nil)...))
			}
			s.unionOf(others, 1+arg%4)
			for r := range others {
				if !slices.Equal(slices.Concat(others[r].parts(nil)...), before[r]) {
					t.Fatalf("op %d: union modified sample %d", i, r)
				}
			}
			sorted(i, "union")
			if cap(s.xs) != len(s.xs) {
				t.Fatalf("op %d: union left cap %d for %d elements", i, cap(s.xs), len(s.xs))
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
		{2, 9, 2, 8, 3, 2, 255, 2, 254}, // one- and three-sample unions, like a pass Merge
		{2, 0, 1, 120, 2, 3},            // an empty sample, then a radix-sized tail sorted by a union
		{1, 200, 3, 0, 9, 2, 110},       // a union into a sorted prefix with a tail, on three workers
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

// TestPassSampleReservation bounds what a pass's workers reserve for their
// samples: at most 1.5 times the floats they write, over the fleet's kind
// mix (two or three kinds dominate, SMS and voice are rare) and over a
// one-kind dataset, at one and two workers. Every sample grows a chunk at
// a time, so neither a rare kind nor a dominant one reserves for the other.
func TestPassSampleReservation(t *testing.T) {
	van, _ := setup(t)
	mix := van.Dataset.Events()
	oneKind := slices.Clone(mix)
	for i := range oneKind {
		oneKind[i].Kind = failure.OutOfService
	}
	for _, c := range []struct {
		name   string
		events []failure.Event
	}{{"fleet-mix", mix}, {"one-kind", oneKind}} {
		ds := trace.FromEvents(c.events)
		for workers := 1; workers <= 2; workers++ {
			written, reserved := 0, 0
			for _, f := range foldRuns(ds, workers) {
				v := f.v
				all := []*samples{&v.stall.autoFix}
				for k := range v.kindDur.byKind {
					all = append(all, &v.kindDur.byKind[k])
				}
				for _, s := range all {
					written += s.len()
					reserved += cap(s.xs) + cap(s.cur)
					for _, c := range s.chunks {
						reserved += cap(c)
					}
				}
			}
			ratio := float64(reserved) / float64(written)
			t.Logf("%s, %d workers: %d floats written, %d reserved (%.3f×)", c.name, workers, written, reserved, ratio)
			if ratio > 1.5 {
				t.Errorf("%s, %d workers: reserved %d floats for %d written (%.2f×), want at most 1.5×", c.name, workers, reserved, written, ratio)
			}
		}
	}
}
