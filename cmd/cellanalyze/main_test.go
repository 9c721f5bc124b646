package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fleet"
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
	if ds.Len() == 0 || ds.Len() != run.Monitor.Recorded {
		t.Fatalf("collector holds %d events, the fleet recorded %d", ds.Len(), run.Monitor.Recorded)
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
	if res.Context != (fleet.Context{}) {
		t.Error("a store without a context file loaded with a non-zero context")
	}

	in := analysis.FromResult(res)
	targets := figureTargets(res, in, analysis.NewPass(in), io.Discard)
	if len(targetOrder) != len(targets) {
		t.Errorf("%d targets, %d in the 'all' order", len(targets), len(targetOrder))
	}
	for _, name := range targetOrder {
		targets[name]() // must not panic on the zero-value context
	}
}

// TestOverheadUsesTheRunsWindow: the network budget is per month of the
// run itself. A one-month run whose worst phone sent 30 MiB is over the
// 22 MiB-per-month budget; read as eight months it would not be.
func TestOverheadUsesTheRunsWindow(t *testing.T) {
	res, err := fleet.Run(fleet.Scenario{Seed: 5, NumDevices: 20, Window: 30 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	res.Overhead = fleet.OverheadSummary{Devices: 20, MaxNetworkBytes: 30 << 20}
	dir := filepath.Join(t.TempDir(), "run")
	if err := fleet.SaveResult(dir, res); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-in", dir, "overhead"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "worst ok=false") {
		t.Errorf("cellanalyze overhead of a one-month run at 30 MiB: %q, want worst ok=false", out.String())
	}
}

// TestUnknownFlagIsAUsageError: a mistyped flag fails before anything is
// loaded.
func TestUnknownFlagIsAUsageError(t *testing.T) {
	err := run([]string{"-inn", "run"}, io.Discard)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "flag provided but not defined: -inn") {
		t.Fatalf("cellanalyze -inn run: %v, want a usage error naming the flag", err)
	}
}

// TestUnknownTargetNamesTheKnownOnes: a mistyped target fails before the
// run directory is read (there is none here), naming every target there is.
func TestUnknownTargetNamesTheKnownOnes(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-in", filepath.Join(t.TempDir(), "missing"), "table1", "fig99"}, &out)
	if err == nil || errors.Is(err, errUsage) || out.Len() != 0 {
		t.Fatalf("cellanalyze fig99: %v after %q, want an error and no output", err, out.String())
	}
	for _, want := range append([]string{`"fig99"`, "all", "enhancement"}, targetOrder...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if err := run([]string{"enhancement"}, io.Discard); err == nil || !strings.Contains(err.Error(), "-patched") {
		t.Errorf("cellanalyze enhancement without -patched: %v", err)
	}
}
