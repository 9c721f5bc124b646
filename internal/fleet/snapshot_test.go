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
	"time"

	"repro/internal/failure"
	"repro/internal/trace"
)

// TestSnapshotRoundTripDeepEquality pins the persistence contract beyond
// the length check of TestSnapshotRoundTrip: a result saved with
// SaveResult and read back with ReadRun carries the identical events
// (content AND order), run context, and scenario identity.
func TestSnapshotRoundTripDeepEquality(t *testing.T) {
	res := runFleet(t, Scenario{Seed: 11, NumDevices: 150, Workers: 3})
	if res.Dataset.Len() == 0 {
		t.Fatal("run produced no events")
	}
	path := filepath.Join(t.TempDir(), "run")
	if err := SaveResult(path, res); err != nil {
		t.Fatal(err)
	}
	got, events := readRun(t, path)
	if !reflect.DeepEqual(events, res.Dataset.Events()) {
		t.Error("events diverged across the run-directory round trip")
	}
	if got.Context != res.Context {
		t.Errorf("context: got %+v want %+v", got.Context, res.Context)
	}
	if got.Scenario.Seed != res.Scenario.Seed || got.Scenario.NumDevices != res.Scenario.NumDevices ||
		got.Scenario.NumBS != res.Scenario.NumBS || got.Scenario.Window != res.Scenario.Window {
		t.Errorf("scenario identity lost: got %+v", got.Scenario)
	}
}

// TestContextSizeIgnoresStations: the context file keeps per-RAT station
// counts, not the station list, so a hundredfold larger deployment writes
// a context file of about the same size.
func TestContextSizeIgnoresStations(t *testing.T) {
	var sizes []int64
	for _, bs := range []int{200, 20_000} {
		res := runFleet(t, Scenario{Seed: 1, NumDevices: 50, NumBS: bs, Window: 30 * 24 * time.Hour, Workers: 1})
		dir := filepath.Join(t.TempDir(), "run")
		if err := SaveResult(dir, res); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, contextName))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	if d := sizes[1] - sizes[0]; d <= -1024 || d >= 1024 {
		t.Errorf("%s at 200 and 20 000 stations: %d and %d bytes, want within 1 KiB", contextName, sizes[0], sizes[1])
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
	_, events := readRun(t, path)
	if n := count(events); n != want {
		t.Errorf("transition-tagged events: got %d want %d", n, want)
	}
}

// TestReadRunCorrupt covers the ways a run directory can be unreadable
// (the missing-directory path lives in TestReadRunMissing): it is not a
// directory, its context file does not decode, or a sealed segment is
// corrupt, or an unsealed tail holds a frame an older encoder gzip'd. A
// torn final frame in an unsealed tail is not corruption: the reader
// hands on the frames before it and leaves the file as it was.
func TestReadRunCorrupt(t *testing.T) {
	visit := func([]failure.Event) {}
	raw := filepath.Join(t.TempDir(), "raw")
	if err := os.WriteFile(raw, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRun(raw, visit); err == nil {
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
		if _, err := ReadRun(dir, visit); err == nil {
			t.Errorf("overwritten %s: want error", name)
		}
	}
	// An older build's frames: a gzip'd one, and whole frames of the three
	// record layouts before this one, tagged 0xA3 to 0xA5.
	retagged := func(tag byte) []byte {
		frame, err := trace.AppendBatchV3(nil, &trace.Batch{Events: res.Dataset.Events()[:8]})
		if err != nil {
			t.Fatal(err)
		}
		frame[0] = tag
		return frame
	}
	for name, frame := range map[string][]byte{"a gzip'd frame": {0xA6, 0x01, 0, 0, 0, 1, 0}, "a 0xA5 frame": retagged(0xA5), "a 0xA4 frame": retagged(0xA4), "a 0xA3 frame": retagged(0xA3)} {
		older := filepath.Join(t.TempDir(), "older")
		if err := SaveResult(older, res); err != nil {
			t.Fatal(err)
		}
		tail := filepath.Join(older, "seg-000002.v3s")
		if err := os.WriteFile(tail, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadRun(older, visit); err == nil || !strings.Contains(err.Error(), tail) {
			t.Errorf("%s in the tail segment: error %v, want one naming %s", name, err, tail)
		}
	}

	events := res.Dataset.Events()
	dir := filepath.Join(t.TempDir(), "torn")
	st, err := trace.OpenSegStore(dir, trace.SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	half := len(events) / 2
	for _, b := range [][]failure.Event{events[:half], events[half:]} {
		if err := st.Append(&trace.Batch{Events: b}); err != nil {
			t.Fatal(err)
		}
	}
	st.Kill()
	seg := filepath.Join(dir, "seg-000001.v3s")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	got, read := readRun(t, dir)
	if !reflect.DeepEqual(read, events[:half]) || got.Context != (Context{}) {
		t.Errorf("torn tail: read %d events, want the %d before the torn frame around the zero context", len(read), half)
	}
	if after, err := os.Stat(seg); err != nil || after.Size() != fi.Size()-3 {
		t.Errorf("the read-only reader changed the torn segment: %v", err)
	}
}

// readRun reads run directory dir back with ReadRun, collecting its
// events in file order.
func readRun(t *testing.T, dir string) (*Result, []failure.Event) {
	t.Helper()
	var events []failure.Event
	res, err := ReadRun(dir, func(b []failure.Event) { events = append(events, b...) })
	if err != nil {
		t.Fatal(err)
	}
	return res, events
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
