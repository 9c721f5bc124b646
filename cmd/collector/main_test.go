package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/trace"
)

var updateFixtures = flag.Bool("update", false, "rewrite the testdata fixtures of the dataset endpoints")

// lineWriter hands each of run's progress lines (one Write each) to the
// test. Its buffer holds every line a run prints, so run never blocks on it.
type lineWriter chan string

func (w lineWriter) Write(p []byte) (int, error) {
	w <- string(p)
	return len(p), nil
}

func (w lineWriter) next(t *testing.T, prefix string) string {
	t.Helper()
	select {
	case line := <-w:
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("run printed %q, want a line starting %q", line, prefix)
		}
		return line
	case <-time.After(time.Minute):
		t.Fatalf("no %q line from run", prefix)
		return ""
	}
}

// hostPort finds the bound address in a line run printed.
var hostPort = regexp.MustCompile(`127\.0\.0\.1:[0-9]+`)

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return body
}

// segmentFiles reads every segment file of dir, by name.
func segmentFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(name)] = string(raw)
	}
	return files
}

// TestRunBootServeShutdown drives the server body over a saved run: boot
// replay must leave the live documents byte-identical to a batch pass over
// the run (I5 through the command), and a signal must leave a directory
// that holds every acked batch, sealed, and still loads as a run — with
// the run's own segment files untouched and one new file for the upload.
func TestRunBootServeShutdown(t *testing.T) {
	res, err := fleet.Run(fleet.Scenario{Seed: 7, NumDevices: 300, Window: 30 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	if err := fleet.SaveResult(dir, res); err != nil {
		t.Fatal(err)
	}
	saved := res.Dataset.Len()
	runSegments := segmentFiles(t, dir)
	pass := analysis.NewPass(analysis.FromResult(res))
	wantFigures, err := pass.FiguresJSON(core.Catalogue())
	if err != nil {
		t.Fatal(err)
	}
	wantClaims, err := pass.ClaimsJSON()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan os.Signal, 1)
	lines := make(lineWriter, 8)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-store-dir", dir,
			"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, stop, lines)
	}()
	var replayed int
	fmt.Sscanf(lines.next(t, "replayed "), "replayed %d events", &replayed)
	addr := hostPort.FindString(lines.next(t, "collector listening on "))
	base := "http://" + hostPort.FindString(lines.next(t, "metrics on "))
	api := base + "/api/live/"
	lines.next(t, "live figures on ")
	if replayed != saved || saved == 0 {
		t.Fatalf("replayed %d events, the run holds %d", replayed, saved)
	}

	// The dataset aggregates, byte for byte as the fixtures recorded them.
	for _, name := range []string{"stats", "by-model", "by-isp", "segments"} {
		got := get(t, base+"/api/"+name)
		fixture := filepath.Join("testdata", "api_"+name+".json")
		if *updateFixtures {
			if err := os.WriteFile(fixture, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("/api/%s after boot replay differs from %s:\n got %s\nwant %s", name, fixture, got, want)
		}
	}

	if got := get(t, api+"figures"); !bytes.Equal(got, wantFigures) {
		t.Errorf("/api/live/figures after boot replay differs from the batch pass (%d vs %d bytes)", len(got), len(wantFigures))
	}
	if got := get(t, api+"claims"); !bytes.Equal(got, wantClaims) {
		t.Errorf("/api/live/claims after boot replay differs from the batch pass (%d vs %d bytes)", len(got), len(wantClaims))
	}
	var status analysis.StreamingStatus
	if err := json.Unmarshal(get(t, api+"status"), &status); err != nil {
		t.Fatal(err)
	}
	if status.Events != int64(saved) || status.QueueEvents != 0 {
		t.Errorf("/api/live/status after boot replay: %+v, want %d events, no lag", status, saved)
	}

	// One fresh sequenced batch from a device the run never had.
	const device = 1 << 40
	fresh := res.Dataset.Events()[:5]
	up := trace.NewUploader(addr, device)
	for _, e := range fresh {
		e.DeviceID = device
		up.Record(e)
	}
	up.SetWiFi(true)
	if err := up.Flush(); err != nil || up.Pending() != 0 {
		t.Fatalf("upload: %v, %d events still pending", err, up.Pending())
	}
	up.Close()

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("run did not return after the signal")
	}
	want := saved + len(fresh)
	var stored int
	fmt.Sscanf(lines.next(t, "stored "), "stored %d events", &stored)
	if stored != want {
		t.Errorf("shutdown reported %d events, want %d replayed + %d uploaded", stored, saved, len(fresh))
	}

	after := segmentFiles(t, dir)
	for name, raw := range runSegments {
		if after[name] != raw {
			t.Errorf("the run's %s changed while the collector served it", name)
		}
	}
	if len(after) != len(runSegments)+1 {
		t.Errorf("%d segment files after one upload into a %d-segment run, want one more", len(after), len(runSegments))
	}

	// What the shutdown order promises, read back from the directory. A
	// read-only open reports every segment sealed whatever the writer did,
	// so the writer's own seal boundary is read from its checkpoint.
	events := 0
	st, err := trace.OpenSegStore(dir, trace.SegStoreOptions{ReadOnly: true}, func(b *trace.Batch) { events += len(b.Events) })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	segs := st.Segments()
	for _, seg := range segs {
		if !seg.Sealed {
			t.Errorf("segment %d is not sealed after shutdown", seg.ID)
		}
	}
	var cp struct {
		SealedThrough uint64 `json:"sealed_through"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &cp); err != nil {
		t.Fatal(err)
	}
	if last := segs[len(segs)-1].ID; cp.SealedThrough != last {
		t.Errorf("checkpoint seals through segment %d, the last segment is %d", cp.SealedThrough, last)
	}
	if events != want {
		t.Errorf("the directory holds %d events, want %d", events, want)
	}
	if seq := st.Marks()[device]; seq != 1 {
		t.Errorf("mark of the uploading device = %d, want 1", seq)
	}
	read := 0
	loaded, err := fleet.ReadRun(dir, func(events []failure.Event) { read += len(events) })
	if err != nil {
		t.Fatal(err)
	}
	if read != want || loaded.Population != res.Population {
		t.Errorf("the directory reads as %d events of %d devices, want %d of %d",
			read, loaded.Population.Total, want, res.Population.Total)
	}

	// Serving it again without an upload changes no segment file: the empty
	// segment the boot opened is gone after the clean shutdown.
	stop <- os.Interrupt
	if err := run([]string{"-store-dir", dir, "-listen", "127.0.0.1:0", "-http", ""}, stop, io.Discard); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !reflect.DeepEqual(segmentFiles(t, dir), after) {
		t.Error("a boot and clean shutdown with no upload changed the segment files")
	}
}

// TestRetiredFlagsAreUsageErrors: the fleet-member mode and the -live
// switch are gone, and asking for them must fail, not boot something else.
func TestRetiredFlagsAreUsageErrors(t *testing.T) {
	for _, retired := range [][]string{
		{"-live"},
		{"-fleet-self", "col-0"},
		{"-fleet-peers", "col-1=127.0.0.1:1"},
		{"-ring-seed", "1"},
		{"-ring-vnodes", "8"},
		{"-live-context", "run"},
	} {
		// Were the flag accepted, this would boot and stop at once.
		stop := make(chan os.Signal, 1)
		stop <- os.Interrupt
		args := append([]string{"-store-dir", t.TempDir(), "-listen", "127.0.0.1:0", "-http", ""}, retired...)
		err := run(args, stop, io.Discard)
		if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "flag provided but not defined: "+retired[0]) {
			t.Errorf("collector %s: %v, want a usage error naming the flag", strings.Join(retired, " "), err)
		}
	}
}

// TestBootFailsOnACorruptRunContext: a store with no run context — here
// one that does not exist yet — boots with the zero context, but a
// context file that does not decode is a boot error, not a silent zero.
func TestBootFailsOnACorruptRunContext(t *testing.T) {
	boot := func(dir string) error {
		stop := make(chan os.Signal, 1)
		stop <- os.Interrupt
		return run([]string{"-store-dir", dir, "-listen", "127.0.0.1:0", "-http", ""}, stop, io.Discard)
	}
	if err := boot(filepath.Join(t.TempDir(), "fresh")); err != nil {
		t.Errorf("boot over a fresh store: %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "context.gob"), []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := boot(dir); err == nil || !strings.Contains(err.Error(), "run context") {
		t.Errorf("boot over a corrupt context file: %v, want a run context error", err)
	}
}
