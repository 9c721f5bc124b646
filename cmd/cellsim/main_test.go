package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/fleet"
)

// doc writes a scenario document to a file of its own and returns the path.
func doc(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunDirectoryIgnoresWorkerCount is the ordered contract end to end:
// one seed written at "workers": 1 and "workers": 4 holds the same events
// in the same order. The frames are cut as each worker's own writer would
// cut them: a frame never holds two workers' devices, and a worker's frames
// are full runChunk frames but for its last. context.gob is left out: its
// dwell-time sums are added up per worker, so their last bits follow the
// worker count. Either run reports the bytes its segment files hold.
func TestRunDirectoryIgnoresWorkerCount(t *testing.T) {
	const devices, runChunk = 300, 4096
	base := t.TempDir()
	frames := func(workers int) [][]failure.Event {
		dir := filepath.Join(base, fmt.Sprint("w", workers))
		args := []string{"-o", dir, "-progress", "1h", doc(t, fmt.Sprintf(`{"seed":7,"devices":%d,"months":2,"workers":%d}`, devices, workers))}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("cellsim with workers %d: %v", workers, err)
		}
		names, err := filepath.Glob(filepath.Join(dir, "seg-*.v3s"))
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, name := range names {
			fi, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			total += int(fi.Size())
		}
		if want := fmt.Sprintf(" events, %d segment bytes, ", total); !strings.Contains(out.String(), want) {
			t.Errorf("workers %d: the output names no %d segment bytes:\n%s", workers, total, out.String())
		}
		var frames [][]failure.Event
		if _, err := fleet.ReadRun(dir, func(events []failure.Event) {
			frames = append(frames, slices.Clone(events))
		}); err != nil {
			t.Fatal(err)
		}
		// Worker w runs the device indexes [devices*w/workers,
		// devices*(w+1)/workers); an event's DeviceID is its index + 1.
		worker := func(e *failure.Event) int { return (int(e.DeviceID)*workers - 1) / devices }
		for i, f := range frames {
			w := worker(&f[0])
			if worker(&f[len(f)-1]) != w {
				t.Errorf("workers %d: frame %d holds devices %d to %d, of two workers", workers, i, f[0].DeviceID, f[len(f)-1].DeviceID)
			}
			if last := i == len(frames)-1 || worker(&frames[i+1][0]) != w; !last && len(f) != runChunk {
				t.Errorf("workers %d: frame %d holds %d events, not worker %d's last but short of %d", workers, i, len(f), w, runChunk)
			}
		}
		return frames
	}
	one, four := frames(1), frames(4)
	if len(one) == 0 {
		t.Fatal("workers 1 wrote no frame")
	}
	if len(four) <= len(one) {
		t.Errorf("workers 4 wrote %d frames, workers 1 %d: no frame was cut at a worker's boundary", len(four), len(one))
	}
	if a, b := slices.Concat(one...), slices.Concat(four...); !slices.Equal(a, b) {
		t.Errorf("workers 1 and workers 4 hold different events (%d and %d)", len(a), len(b))
	}
}

// TestUnknownFlagIsAUsageError: a mistyped flag must fail before anything
// is simulated or written, not be ignored.
func TestUnknownFlagIsAUsageError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	err := run([]string{"-o", dir, "-device", "10"}, io.Discard)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "flag provided but not defined: -device") {
		t.Fatalf("cellsim -device 10: %v, want a usage error naming the flag", err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused command line created %s (%v)", dir, err)
	}
}

// TestConfigRefusesScenarioFlags: the document sets the whole scenario,
// so each retired scenario flag beside it, -config and -faults among them,
// is a usage error naming it, not a value silently dropped.
func TestConfigRefusesScenarioFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run")
	s := doc(t, `{"seed":3,"devices":20,"months":0.5}`)
	for _, beside := range [][]string{
		{"-config", s}, {"-faults", s}, {"-devices", "5"}, {"-months", "1"}, {"-seed", "2"}, {"-bs", "9"},
		{"-workers", "2"}, {"-patched"}, {"-upload", "127.0.0.1:1"}, {"-buffer", "10"}, {"-spill", out},
	} {
		args := append(append([]string{"-o", out}, beside...), s)
		if err := run(args, io.Discard); !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "not defined: "+beside[0]) {
			t.Errorf("cellsim %s: %v, want a usage error naming %s", strings.Join(args, " "), err, beside[0])
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused command line created %s (%v)", out, err)
	}
}

// TestConfigRefusesWhatCellsimCannotRun: a command line without exactly
// one readable document, a document with an unknown key or a backend
// (cellcheck runs those) and a fault rule that starts past the window (it
// would never fire) are all refused before anything is simulated, printed
// or saved.
func TestConfigRefusesWhatCellsimCannotRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run")
	for want, args := range map[string][]string{
		"want one scenario document, got 0 arguments": nil,
		"want one scenario document, got 2 arguments": {"a.json", "b.json"},
		"missing.json":                  {filepath.Join(out, "missing.json")},
		`unknown field "patched"`:       {doc(t, `{"seed":3,"devices":20,"patched":true}`)},
		"a backend is run by cellcheck": {filepath.Join("..", "..", "scenarios", "chaos-fleet1.json")},
		`rule "late"`: {doc(t, `{"devices":20,"months":0.5,"faults":{"name":"c","rules":[
			{"name":"late","class":"rss-degrade","levels":2,"start_days":20,"window_days":2}]}}`)},
	} {
		var stdout bytes.Buffer
		err := run(append([]string{"-o", out}, args...), &stdout)
		if err == nil || !strings.Contains(err.Error(), want) || errors.Is(err, errUsage) != (len(args) != 1) || stdout.Len() != 0 {
			t.Errorf("cellsim %q: %v after %q, want a refusal containing %q", args, err, stdout.String(), want)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused command line created %s (%v)", out, err)
	}
}

// TestFaultsRefusesNetworkRulesWithoutUpload: a document whose faults
// hold an ack-loss rule but no upload_addr would fault nothing and report
// injected=0; it is refused before anything is simulated or printed.
func TestFaultsRefusesNetworkRulesWithoutUpload(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-o", "", doc(t, `{"devices":20,"months":0.5,"faults":{"name":"net","rules":[
		{"name":"lost","class":"ack-loss","probability":0.5}]}}`)}, &out)
	if err == nil || !strings.Contains(err.Error(), "nothing uploads") || out.Len() != 0 {
		t.Errorf("cellsim with an ack-loss rule and no upload_addr: %v after %q, want a refusal", err, out.String())
	}
}
