package analysis

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestRenderFanOutAndMemoChangeNoByte renders the figures and the claims
// of one pass at one and at two CPUs — the heavy finishers on one core or
// split across two — with the claims both before and after the figures,
// so each document is built once on cold memos and once on memos the other
// left, and renders each again on the same pass. Every rendering must be
// the bytes of a serial render of a fresh pass. The inputs are the shared
// fleet and a slice of it carrying unknown-kind events, which Figure 4
// counts and the per-kind rows leave out.
//
// ci/verify.sh's race stage runs it five times: the render's two goroutines
// and its memos must give the same bytes whichever finishes first.
func TestRenderFanOutAndMemoChangeNoByte(t *testing.T) {
	van, _ := setup(t)
	var events []failure.Event
	van.Dataset.Each(func(e *failure.Event) {
		if len(events) < 5000 {
			events = append(events, *e)
		}
	})
	for i := 0; i < 3; i++ {
		e := events[i*1000]
		e.Kind = failure.Kind(failure.NumKinds + i)
		events = append(events, e)
	}
	unknown := van
	unknown.Dataset = trace.FromEvents(events)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	render := func(p *Pass, claimsFirst bool) (fig, claims []byte) {
		t.Helper()
		var err error
		if claimsFirst {
			claims, err = p.ClaimsJSON()
		}
		if err == nil {
			fig, err = p.FiguresJSON(catalogueCE)
		}
		if err == nil && !claimsFirst {
			claims, err = p.ClaimsJSON()
		}
		if err != nil {
			t.Fatal(err)
		}
		return fig, claims
	}
	for name, in := range map[string]Input{"fleet": van, "unknown-kind": unknown} {
		runtime.GOMAXPROCS(1)
		wantFig, wantClaims := render(newPass(in, 1), false)
		for _, procs := range []int{1, 2} {
			for _, claimsFirst := range []bool{false, true} {
				runtime.GOMAXPROCS(procs)
				p := newPass(in, 1)
				for round := 0; round < 2; round++ {
					fig, claims := render(p, claimsFirst)
					if !bytes.Equal(fig, wantFig) {
						t.Errorf("%s, %d CPUs, claims first %v, round %d: figures differ\nnear: %.200s",
							name, procs, claimsFirst, round, firstDiff(fig, wantFig))
					}
					if !bytes.Equal(claims, wantClaims) {
						t.Errorf("%s, %d CPUs, claims first %v, round %d: claims differ", name, procs, claimsFirst, round)
					}
				}
			}
		}
	}
}

// eachPoint returns every point of an ECDF: its whole ascending sample.
func eachPoint(e *stats.ECDF) [][2]float64 { return e.Points(e.N()) }

// TestFigure3CountingSortMatchesNewECDF builds per-phone counts the
// counting sort must order as stats.NewECDF does: a population larger than
// the failing devices (zero padding), and one device whose count passes
// the histogram's end, the population size, and takes the sorting path.
func TestFigure3CountingSortMatchesNewECDF(t *testing.T) {
	for _, heavy := range []int32{0, 5000} {
		v := newDeviceVisitor(0)
		r := rand.New(rand.NewSource(9))
		const total = 400
		want := make([]float64, total)
		for id := 0; id < 120; id++ {
			n := int32(1 + r.Intn(30))
			if id == 7 && heavy > 0 {
				n = heavy
			}
			for i := int32(0); i < n; i++ {
				v.Visit(&failure.Event{DeviceID: uint64(id), Kind: failure.Kind(r.Intn(failure.NumKinds))})
			}
			want[id] = float64(n)
		}
		got := v.figure3(fleet.Population{Total: total}).CDF
		if !slices.Equal(eachPoint(got), eachPoint(stats.NewECDF(want))) {
			t.Errorf("heavy device %d: the counted per-phone sample differs from NewECDF's", heavy)
		}
	}
}

// TestFigure11RankingMatchesComparisonSort checks the radix-sorted
// ranking against a comparison sort on the same key (count descending,
// id ascending), and its median — read from the reversed ranking — against
// stats.NewECDF over the counts: with ties everywhere, ids spread over all
// 64 bits, station zero, and a single station.
func TestFigure11RankingMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, stations := range []int{1, 2, 7, 3000} {
		v := newBSVisitor(0)
		var want []bsCount
		var counts []float64
		seen := map[uint64]bool{}
		for len(want) < stations {
			id := r.Uint64() >> uint(r.Intn(40))
			if len(want) == 1 {
				id = 0
			}
			if seen[id] {
				continue
			}
			seen[id] = true
			e := bsCount{id: id, n: uint64(1 + r.Intn(12)), urban: r.Intn(2) == 0}
			if r.Intn(50) == 0 {
				e.n = uint64(r.Intn(1 << 20))
				e.n++
			}
			v.add(e.id, e.n, e.urban)
			want = append(want, e)
			counts = append(counts, float64(e.n))
		}
		list := slices.Clone(want)
		r.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		slices.SortFunc(want, func(a, b bsCount) int {
			if a.n != b.n {
				if a.n > b.n {
					return -1
				}
				return 1
			}
			switch {
			case a.id < b.id:
				return -1
			case a.id > b.id:
				return 1
			}
			return 0
		})
		if got := sortRanking(list); !slices.Equal(got, want) {
			t.Fatalf("%d stations: the radix ranking differs from the comparison sort's", stations)
		}
		ranked := v.rank()
		for i, e := range want {
			if ranked.Counts[i] != e.n || ranked.urban[i] != e.urban {
				t.Fatalf("%d stations, rank %d: got count %d urban %v, want %d, %v",
					stations, i, ranked.Counts[i], ranked.urban[i], e.n, e.urban)
			}
		}
		if got, want := ranked.Median, stats.NewECDF(counts).Quantile(0.5); got != want {
			t.Errorf("%d stations: median %v, want %v", stations, got, want)
		}
	}
}
