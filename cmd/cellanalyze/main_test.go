package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// TestGoldenDocumentsSurviveARunDirectory pins the two canonical documents
// of one fixed run across a save and cellanalyze's read: what cellanalyze
// writes from a run directory is what the analysis wrote from memory when
// the hashes were recorded. Workers is part of the recorded run: the
// dwell-time sums behind Figures 14-16 are added up per worker, so their
// last bits — and the figures hash — follow the worker count.
func TestGoldenDocumentsSurviveARunDirectory(t *testing.T) {
	res, err := fleet.Run(fleet.Scenario{Seed: 11, NumDevices: 10000, Window: 72 * time.Hour, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	dir := filepath.Join(tmp, "run")
	if err := fleet.SaveResult(dir, res); err != nil {
		t.Fatal(err)
	}
	figures, claims := filepath.Join(tmp, "figures.json"), filepath.Join(tmp, "claims.json")
	if err := run([]string{"-in", dir, "-figures-json", figures, "-claims-json", claims}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []struct{ path, want string }{
		{figures, "187bedb559f18d435e242055a0dc759e1ea8794844601feeb18419e294c33072"},
		{claims, "7dc0ff3a7c0d468a040276538849088af94b66760299c649c2150a12a962b12f"},
	} {
		body, err := os.ReadFile(doc.path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(body)); sum != doc.want {
			t.Errorf("%s of the read run: SHA-256 %s, want %s", filepath.Base(doc.path), sum, doc.want)
		}
	}
}

// TestCollectorStoreIsARunDirectory reads what a collector stored, its
// frames uploaded by three devices' uploaders taking turns: while the
// collector still holds the store open, and after it sealed it. There is
// no context file, so the read is the stored multiset around the
// zero-value context; its fold equals NewPass over the replayed store,
// and every figure target must run on it.
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
	ref, err := fleet.Run(fleet.Scenario{Seed: 3, NumDevices: 300, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Each uploader takes a third of the run's events, 256 a frame, and
	// they flush in turn, so the store interleaves their frames.
	events := ref.Dataset.Events()
	parts := [][]failure.Event{events[:len(events)/3], events[len(events)/3 : 2*len(events)/3], events[2*len(events)/3:]}
	ups := make([]*trace.Uploader, len(parts))
	for i := range ups {
		ups[i] = trace.NewUploader(col.Addr(), uint64(1_000_000+i))
		ups[i].SetWiFi(true)
	}
	for off := 0; off < len(parts[2]); off += 256 {
		for i, up := range ups {
			part := parts[i]
			for _, e := range part[min(off, len(part)):min(off+256, len(part))] {
				up.Record(e)
			}
			if err := up.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, up := range ups {
		if err := up.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if ds.Len() != len(events) {
		t.Fatalf("collector holds %d events, the uploaders sent %d", ds.Len(), len(events))
	}
	wantDigest := ref.Dataset.MultisetDigest()

	read := func(when string) (*fleet.Result, *analysis.Pass) {
		fold := analysis.NewFold()
		var (
			n, descents int
			last        uint64
			digest      trace.Digest
		)
		res, err := fleet.ReadRun(dir, func(events []failure.Event) {
			fold.Add(events)
			for i := range events {
				digest.Add(trace.EventDigest(&events[i]))
				if events[i].DeviceID < last {
					descents++
				}
				last = events[i].DeviceID
			}
			n += len(events)
		})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if n != len(events) || digest != wantDigest {
			t.Fatalf("%s: read %d events digest %s, uploaded %d digest %s", when, n, digest, len(events), wantDigest)
		}
		if descents == 0 {
			t.Fatalf("%s: the store reads in device order; want the uploaders' frames interleaved", when)
		}
		return res, fold.Pass(res.Context)
	}
	read("beside the live collector")
	if err := col.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	res, pass := read("after the collector closed")
	if res.Context != (fleet.Context{}) {
		t.Error("a store without a context file read with a non-zero context")
	}

	replayed := trace.NewDataset()
	ro, err := trace.OpenSegStore(dir, trace.SegStoreOptions{ReadOnly: true}, trace.ReplayInto(replayed))
	if err != nil {
		t.Fatal(err)
	}
	ro.Close()
	want := analysis.NewPass(analysis.Input{Dataset: replayed})
	for _, doc := range []struct {
		name      string
		got, want func() ([]byte, error)
	}{
		{"figures", func() ([]byte, error) { return pass.FiguresJSON(core.Catalogue()) }, func() ([]byte, error) { return want.FiguresJSON(core.Catalogue()) }},
		{"claims", pass.ClaimsJSON, want.ClaimsJSON},
	} {
		got, err := doc.got()
		if err != nil {
			t.Fatal(err)
		}
		exp, err := doc.want()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp) {
			t.Errorf("%s document of the folded store differs from NewPass over its replay", doc.name)
		}
	}

	targets := figureTargets(res, analysis.NewTimeSeries(0), pass, io.Discard)
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

// TestFailedReadLeavesNoExport: a read that fails — the directory is
// missing, or a sealed segment breaks after its first frame was exported —
// leaves no -csv or -jsonl file behind.
func TestFailedReadLeavesNoExport(t *testing.T) {
	res, err := fleet.Run(fleet.Scenario{Seed: 5, NumDevices: 20, Window: 30 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(t.TempDir(), "corrupt")
	st, err := trace.OpenSegStore(corrupt, trace.SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := res.Dataset.Events()
	for _, b := range [][]failure.Event{events[:len(events)/2], events[len(events)/2:]} {
		if err := st.Append(&trace.Batch{Events: b}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(corrupt, "seg-000001.v3s")
	fi, err := os.Stat(seg)
	if err == nil {
		err = os.Truncate(seg, fi.Size()-3) // the second frame of a sealed segment, cut short
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{filepath.Join(t.TempDir(), "missing"), corrupt} {
		out := t.TempDir()
		args := []string{"-in", dir, "-csv", filepath.Join(out, "x.csv"), "-jsonl", filepath.Join(out, "x.jsonl")}
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("cellanalyze %v succeeded", args)
		}
		if left, err := os.ReadDir(out); err != nil || len(left) != 0 {
			t.Errorf("reading %s failed and left %d files (err %v), want none", filepath.Base(dir), len(left), err)
		}
	}
}
