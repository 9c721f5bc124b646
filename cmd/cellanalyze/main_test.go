package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// TestGoldenDocumentsSurviveARunDirectory pins the two canonical documents
// of one fixed run across a save and a load: what cellanalyze writes from
// a run directory is what the analysis wrote from memory when the hashes
// were recorded. Workers is part of the recorded run: the dwell-time sums
// behind Figures 14-16 are added up per worker, so their last bits — and
// the figures hash — follow the worker count.
func TestGoldenDocumentsSurviveARunDirectory(t *testing.T) {
	res, err := fleet.Run(fleet.Scenario{Seed: 11, NumDevices: 10000, Window: 72 * time.Hour, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	if err := fleet.SaveResult(dir, res); err != nil {
		t.Fatal(err)
	}
	got, err := fleet.LoadResult(dir)
	if err != nil {
		t.Fatal(err)
	}
	pass := analysis.NewPass(analysis.FromResult(got))
	figures, err := pass.FiguresJSON(core.Catalogue())
	if err != nil {
		t.Fatal(err)
	}
	claims, err := pass.ClaimsJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []struct {
		name, want string
		body       []byte
	}{
		{"figures", "187bedb559f18d435e242055a0dc759e1ea8794844601feeb18419e294c33072", figures},
		{"claims", "7dc0ff3a7c0d468a040276538849088af94b66760299c649c2150a12a962b12f", claims},
	} {
		if sum := fmt.Sprintf("%x", sha256.Sum256(doc.body)); sum != doc.want {
			t.Errorf("%s JSON of the loaded run: SHA-256 %s, want %s", doc.name, sum, doc.want)
		}
	}
}

// TestCollectorStoreIsARunDirectory loads what a collector stored: while
// the collector still holds the store open, and after it sealed it. There
// is no context file, so the result is the stored multiset around the
// zero-value context, and every figure target must run on that.
func TestCollectorStoreIsARunDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "collector-store")
	ds := trace.NewDataset()
	st, err := trace.OpenSegStore(dir, trace.SegStoreOptions{SegmentSize: 64 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	col, err := trace.NewCollectorWith("127.0.0.1:0", ds, trace.CollectorOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	run, err := fleet.Run(fleet.Scenario{Seed: 3, NumDevices: 300, Workers: 2, UploadAddr: col.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 || int64(ds.Len()) != run.RecordedEvents {
		t.Fatalf("collector holds %d events, the fleet recorded %d", ds.Len(), run.RecordedEvents)
	}

	load := func(when string) *fleet.Result {
		res, err := fleet.LoadResult(dir)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if res.Dataset.Len() != ds.Len() || res.Dataset.MultisetDigest() != run.RecordedDigest {
			t.Fatalf("%s: loaded %d events digest %s, stored %d digest %s",
				when, res.Dataset.Len(), res.Dataset.MultisetDigest(), ds.Len(), run.RecordedDigest)
		}
		return res
	}
	load("beside the live collector")
	if err := col.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	res := load("after the collector closed")
	if res.Population != (fleet.Population{}) || res.Transitions != (fleet.TransitionMatrix{}) ||
		res.Dwell != (fleet.DwellStats{}) || res.Monitor != (monitor.Stats{}) ||
		res.Overhead != (fleet.OverheadSummary{}) || len(res.Network.Stations) != 0 {
		t.Error("a store without a context file loaded with a non-zero context")
	}

	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() {
		os.Stdout = stdout
		null.Close()
	}()
	in := analysis.FromResult(res)
	targets, order := figureTargets(res, in, analysis.NewPass(in))
	if len(order) != len(targets) {
		t.Errorf("%d targets, %d in the 'all' order", len(targets), len(order))
	}
	for _, name := range order {
		targets[name]() // must not panic on the zero-value context
	}
}
