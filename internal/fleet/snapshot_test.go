package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/trace"
)

// TestSnapshotRoundTripDeepEquality pins the persistence contract beyond
// the length/census spot checks of TestSnapshotRoundTrip: a result saved
// with SaveResult and read back with LoadResult carries the identical
// events (content AND order), aggregates, overhead, and scenario identity.
func TestSnapshotRoundTripDeepEquality(t *testing.T) {
	res := runFleet(t, Scenario{Seed: 11, NumDevices: 150, Workers: 3})
	if res.Dataset.Len() == 0 {
		t.Fatal("run produced no events")
	}
	path := filepath.Join(t.TempDir(), "run")
	if err := SaveResult(path, res); err != nil {
		t.Fatal(err)
	}
	got, err := LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.Dataset.Events(), res.Dataset.Events()) {
		t.Error("events diverged across the run-directory round trip")
	}
	if got.Population != res.Population {
		t.Errorf("population: got %+v want %+v", got.Population, res.Population)
	}
	if got.Transitions != res.Transitions {
		t.Error("transition matrix diverged")
	}
	if got.Dwell != res.Dwell {
		t.Error("dwell stats diverged")
	}
	if got.Overhead != res.Overhead {
		t.Errorf("overhead: got %+v want %+v", got.Overhead, res.Overhead)
	}
	if got.Monitor != res.Monitor {
		t.Errorf("monitor stats: got %+v want %+v", got.Monitor, res.Monitor)
	}
	if len(got.Network.Stations) != len(res.Network.Stations) {
		t.Errorf("stations: got %d want %d", len(got.Network.Stations), len(res.Network.Stations))
	}
	if got.Scenario.Seed != res.Scenario.Seed || got.Scenario.NumDevices != res.Scenario.NumDevices ||
		got.Scenario.Window != res.Scenario.Window {
		t.Errorf("scenario identity lost: got %+v", got.Scenario)
	}

	// The restored result must be analyzable the same way: ExtractMetrics
	// over both sides agrees field for field.
	if a, b := ExtractMetrics("x", res), ExtractMetrics("x", got); a != b {
		t.Errorf("metrics diverged: %+v vs %+v", a, b)
	}
}

// TestSnapshotPreservesTransitionPointers checks that events carrying a
// TransitionInfo keep it through the segment files (an optional field is
// easy to lose to a dropped presence flag).
func TestSnapshotPreservesTransitionPointers(t *testing.T) {
	res := runFleet(t, Scenario{Seed: 3, NumDevices: 400, Workers: 2})
	count := func(events []failure.Event) int {
		n := 0
		for i := range events {
			if events[i].HasTransition {
				n++
			}
		}
		return n
	}
	want := count(res.Dataset.Events())
	if want == 0 {
		t.Skip("seed produced no transition-tagged events")
	}
	path := filepath.Join(t.TempDir(), "run")
	if err := SaveResult(path, res); err != nil {
		t.Fatal(err)
	}
	got, err := LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := count(got.Dataset.Events()); n != want {
		t.Errorf("transition-tagged events: got %d want %d", n, want)
	}
}

// TestLoadResultCorrupt covers the three ways a run directory can be
// unreadable (the missing-directory path lives in TestLoadResultMissing):
// it is not a directory, its context file is not gzip, or a sealed
// segment is corrupt.
func TestLoadResultCorrupt(t *testing.T) {
	raw := filepath.Join(t.TempDir(), "raw")
	if err := os.WriteFile(raw, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadResult(raw); err == nil {
		t.Error("regular file: want error")
	}

	res := runFleet(t, Scenario{Seed: 1, NumDevices: 50, Workers: 1})
	for _, name := range []string{contextName, "seg-000001.v3s"} {
		dir := filepath.Join(t.TempDir(), "run")
		if err := SaveResult(dir, res); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not what it should be"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadResult(dir); err == nil {
			t.Errorf("overwritten %s: want error", name)
		}
	}
}

// TestSaveResultBadPath surfaces filesystem errors instead of losing them.
func TestSaveResultBadPath(t *testing.T) {
	res := runFleet(t, Scenario{Seed: 1, NumDevices: 5, Workers: 1})
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{file, filepath.Join(file, "run")} {
		if err := SaveResult(dir, res); err == nil {
			t.Errorf("SaveResult(%s): want error for an unwritable path", dir)
		}
	}
}

// TestSaveResultRefusesNonEmptyDir: a run directory is written once. A
// directory that already holds anything — an earlier run, a collector's
// store, somebody's files — is refused and left exactly as it was.
func TestSaveResultRefusesNonEmptyDir(t *testing.T) {
	res := runFleet(t, Scenario{Seed: 1, NumDevices: 5, Workers: 1})
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckRunDir(dir); err == nil {
		t.Error("CheckRunDir accepted a non-empty directory")
	}
	if err := SaveResult(dir, res); err == nil {
		t.Error("SaveResult wrote into a non-empty directory")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(filepath.Join(dir, "notes.txt")); len(entries) != 1 || string(raw) != "mine" {
		t.Errorf("refused directory was modified: %d entries, notes.txt = %q", len(entries), raw)
	}

	run := filepath.Join(t.TempDir(), "run")
	if err := SaveResult(run, res); err != nil {
		t.Fatal(err)
	}
	if err := SaveResult(run, res); err == nil {
		t.Error("SaveResult overwrote an earlier run")
	}
}

// TestSweepDeterministicAcrossWorkers pins that a sweep's extracted
// metrics are identical whether each variant runs on one worker or four —
// the sweep-facing corollary of the runner's determinism contract.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	mk := func(workers int) []SweepPoint {
		return []SweepPoint{
			{Name: "vanilla", Scenario: Scenario{Seed: 21, NumDevices: 120, Workers: workers}},
			{Name: "never5g", Scenario: Scenario{Seed: 21, NumDevices: 120, Workers: workers, Policy: PolicyNever5G}},
		}
	}
	m1, err := Sweep(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	m4, err := Sweep(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m4) {
		t.Errorf("sweep metrics diverged across worker counts:\n1: %+v\n4: %+v", m1, m4)
	}
	for _, m := range m1 {
		if m.Events == 0 {
			t.Errorf("%s: sweep variant produced no events", m.Name)
		}
	}
}

// TestSweepSurfacesRunErrors checks a failing variant aborts the sweep
// with its name attached.
func TestSweepSurfacesRunErrors(t *testing.T) {
	_, err := Sweep([]SweepPoint{{
		Name: "bad-upload",
		// An unreachable collector makes Run fail after its flush retries
		// (a fleet this size always records events, so the flush is real).
		Scenario: Scenario{Seed: 1, NumDevices: 200, Workers: 1, UploadAddr: "127.0.0.1:1"},
	}})
	if err == nil {
		t.Fatal("want error from unreachable collector")
	}
	if got := err.Error(); !strings.Contains(got, "bad-upload") {
		t.Errorf("error does not name the failing variant: %v", got)
	}
}

// TestRunDirIsACollectorStore boots a collector on what SaveResult wrote —
// a run directory is a segment store — and pins that no dedup state leaks
// out of the dump: the store has no marks, the collector serves the run's
// events, and a device whose id appears in the dump uploads its Seq 1 as a
// fresh batch. Unsequenced frames carry no device, and replay keeps them
// in the order they were written: a store of more than sixteen of them
// reads back in file order.
func TestRunDirIsACollectorStore(t *testing.T) {
	res := runFleet(t, Scenario{Seed: 5, NumDevices: 600, Workers: 2})
	n := res.Dataset.Len()
	if n <= 2*runChunk {
		t.Fatalf("run has %d events, want more than two %d-event frames", n, runChunk)
	}
	dir := filepath.Join(t.TempDir(), "run")
	if err := SaveResult(dir, res); err != nil {
		t.Fatal(err)
	}

	ds := trace.NewDataset()
	st, err := trace.OpenSegStore(dir, trace.SegStoreOptions{}, trace.ReplayInto(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if marks := st.Marks(); len(marks) != 0 {
		t.Fatalf("dumped run left %d dedup marks: %v", len(marks), marks)
	}

	events := res.Dataset.Events()
	frames := filepath.Join(t.TempDir(), "frames")
	fst, err := trace.OpenSegStore(frames, trace.SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const nframes = 20
	for i := range nframes {
		if err := fst.Append(&trace.Batch{Events: events[i*n/nframes : (i+1)*n/nframes]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := trace.NewDataset()
	fst, err = trace.OpenSegStore(frames, trace.SegStoreOptions{ReadOnly: true}, trace.ReplayInto(replayed))
	if err != nil {
		t.Fatal(err)
	}
	fst.Close()
	if !slices.Equal(replayed.Events(), events) {
		t.Errorf("%d unsequenced frames replayed out of file order", nframes)
	}
	col, err := trace.NewCollectorWith("127.0.0.1:0", ds, trace.CollectorOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	mux := http.NewServeMux()
	trace.NewQueryAPI(ds).Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/digest")
	if err != nil {
		t.Fatal(err)
	}
	var served struct {
		Events int
		Digest string
	}
	err = json.NewDecoder(resp.Body).Decode(&served)
	resp.Body.Close()
	if err != nil || served.Events != n || served.Digest != res.Dataset.MultisetDigest().String() {
		t.Fatalf("/api/digest = %+v (err %v), want %d events, digest %s", served, err, n, res.Dataset.MultisetDigest())
	}

	dumped := res.Dataset.Events()[0]
	up := trace.NewUploader(col.Addr(), dumped.DeviceID)
	defer up.Close()
	up.SetWiFi(true)
	up.Record(dumped)
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	if batches, _ := col.Stats(); batches != 1 || col.DedupHits() != 0 || ds.Len() != n+1 {
		t.Fatalf("device %d's Seq 1 after the dump: %d batches stored, %d dedup hits, %d events; want 1, 0, %d",
			dumped.DeviceID, batches, col.DedupHits(), ds.Len(), n+1)
	}
}
