package analysis

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/fleet"
)

// TestFoldMatchesNewPass folds the vanilla run's events in dataset order,
// cut into runs of several lengths, and requires the figures and claims
// documents of the parallel pass over the dataset, byte for byte. So must
// the merge of many folds cut at uneven boundaries: a pass does not depend
// on how its events are cut into folds.
//
// ci/verify.sh's race stage runs it five times: the parallel pass it
// compares against runs its workers concurrently.
func TestFoldMatchesNewPass(t *testing.T) {
	in, _ := setup(t)
	docs := func(p *Pass) (figures, claims []byte) {
		figures, err := p.FiguresJSON(catalogueCE)
		if err != nil {
			t.Fatal(err)
		}
		if claims, err = p.ClaimsJSON(); err != nil {
			t.Fatal(err)
		}
		return figures, claims
	}
	want, _ := passes(t)
	wantFigures, wantClaims := docs(want)
	check := func(name string, pass *Pass) {
		if figures, claims := docs(pass); !bytes.Equal(figures, wantFigures) || !bytes.Equal(claims, wantClaims) {
			t.Errorf("%s: the folded documents differ from NewPass's (figures equal %v, claims equal %v)",
				name, bytes.Equal(figures, wantFigures), bytes.Equal(claims, wantClaims))
		}
	}
	events := in.Dataset.Events()
	for _, cut := range []int{1, 16, 4096, len(events)} {
		fold := NewFold()
		for i := 0; i < len(events); i += cut {
			fold.Add(events[i:min(i+cut, len(events))])
		}
		check(fmt.Sprintf("one fold in runs of %d events", cut), fold.Pass(in.Context))
	}
	var folds []*Fold
	for i, j := 0, 0; i < len(events); i = j {
		j = min(i+[]int{1, 7, 131, 1009, 2}[len(folds)%5], len(events))
		folds = append(folds, NewFold())
		folds[len(folds)-1].Add(events[i:j])
	}
	check(fmt.Sprintf("%d folds of 1, 7, 131, 1009 and 2 events, merged", len(folds)), merge(&Input{Context: in.Context}, folds))
}

// TestFoldRetainsNoEvents pins what reading a run directory keeps: folding
// the 10 000-device, 72 h, seed-11 run's directory retains at most 30 B
// of heap per event with the pass live, where a dataset of the events
// alone holds 72 B of each.
func TestFoldRetainsNoEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the live heap")
	}
	dir := filepath.Join(t.TempDir(), "run")
	func() {
		res, err := fleet.Run(fleet.Scenario{Seed: 11, NumDevices: 10000, Window: 72 * time.Hour, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.SaveResult(dir, res); err != nil {
			t.Fatal(err)
		}
	}()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fold := NewFold()
	n := 0
	res, err := fleet.ReadRun(dir, func(events []failure.Event) {
		fold.Add(events)
		n += len(events)
	})
	if err != nil {
		t.Fatal(err)
	}
	pass := fold.Pass(res.Context)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(res)
	runtime.KeepAlive(fold)
	runtime.KeepAlive(pass)
	perEvent := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	t.Logf("%d events: %.1f B retained per event", n, perEvent)
	if perEvent > 30 {
		t.Errorf("folding a run directory retains %.1f B per event, want at most 30", perEvent)
	}
}
