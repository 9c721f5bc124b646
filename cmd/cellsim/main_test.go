package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunDirectoryIgnoresWorkerCount is the ordered contract end to end:
// one seed written at -workers 1 and -workers 4 gives byte-identical
// segment files. context.gob is left out: its dwell-time sums are added
// up per worker, so their last bits follow the worker count.
func TestRunDirectoryIgnoresWorkerCount(t *testing.T) {
	base := t.TempDir()
	segments := func(workers string) map[string][]byte {
		dir := filepath.Join(base, "w"+workers)
		args := []string{"-devices", "300", "-months", "2", "-seed", "7", "-workers", workers, "-o", dir}
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("cellsim -workers %s: %v", workers, err)
		}
		names, err := filepath.Glob(filepath.Join(dir, "seg-*.v3s"))
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(names))
		for _, name := range names {
			if files[filepath.Base(name)], err = os.ReadFile(name); err != nil {
				t.Fatal(err)
			}
		}
		return files
	}
	one, four := segments("1"), segments("4")
	if len(one) == 0 {
		t.Fatal("-workers 1 wrote no segment file")
	}
	if len(one) != len(four) {
		t.Fatalf("-workers 1 wrote %d segment files, -workers 4 wrote %d", len(one), len(four))
	}
	for name, want := range one {
		if got, ok := four[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s differs between -workers 1 and -workers 4", name)
		}
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

// TestConfigRefusesScenarioFlags: a scenario file sets the whole scenario,
// so a scenario flag beside -config is a usage error naming it, not a
// value silently dropped. -faults, -o and -progress still go with it.
func TestConfigRefusesScenarioFlags(t *testing.T) {
	dir := t.TempDir()
	config := filepath.Join(dir, "s.json")
	if err := os.WriteFile(config, []byte(`{"seed":3,"devices":20,"months":0.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "run")
	for _, beside := range [][]string{
		{"-devices", "5"}, {"-months", "1"}, {"-seed", "2"}, {"-bs", "9"}, {"-workers", "2"},
		{"-patched"}, {"-upload", "127.0.0.1:1"}, {"-buffer", "10"}, {"-spill", dir},
	} {
		args := append([]string{"-config", config, "-o", out}, beside...)
		err := run(args, io.Discard)
		if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), beside[0]+" cannot be given beside it") {
			t.Errorf("cellsim %s: %v, want a usage error naming %s", strings.Join(args, " "), err, beside[0])
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused command line created %s (%v)", out, err)
	}
	err := run([]string{"-config", config, "-seed", "2", "-upload", "127.0.0.1:1"}, io.Discard)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "-seed, -upload cannot") {
		t.Errorf("cellsim -config -seed -upload: %v, want both flags named", err)
	}
	campaign := filepath.Join(dir, "camp.json")
	if err := os.WriteFile(campaign, []byte(`{"name":"c","rules":[{"name":"b","class":"bs-blackout","bs_fraction":0.4,"start_days":1,"window_days":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", config, "-faults", campaign, "-progress", "1h", "-o", out}, io.Discard); err != nil {
		t.Fatalf("cellsim -config -faults -progress -o: %v", err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("cellsim -config -o %s wrote no run directory: %v", out, err)
	}
}

// TestConfigRefusesWhatCellsimCannotRun: a document with a backend is
// cellcheck's to run, and a -faults rule that starts past the run's
// window — beside a scenario file or the flags — would never fire. Both
// are refused before anything is simulated or saved.
func TestConfigRefusesWhatCellsimCannotRun(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "run")
	if err := run([]string{"-config", filepath.Join("..", "..", "scenarios", "chaos-fleet1.json"), "-o", out}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "backend") {
		t.Errorf("cellsim -config chaos-fleet1.json: %v, want the backend refused", err)
	}
	config := filepath.Join(dir, "s.json")
	if err := os.WriteFile(config, []byte(`{"seed":3,"devices":20,"months":0.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	late := filepath.Join(dir, "late.json")
	if err := os.WriteFile(late, []byte(`{"name":"c","rules":[{"name":"late","class":"rss-degrade","levels":2,"start_days":20,"window_days":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-config", config, "-faults", late, "-o", out},
		{"-devices", "20", "-months", "0.5", "-faults", late, "-o", out},
	} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), `rule "late"`) {
			t.Errorf("cellsim %s: %v, want the late rule refused", strings.Join(args, " "), err)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused run created %s (%v)", out, err)
	}
}

// TestFaultsRefusesNetworkRulesWithoutUpload: -faults with an ack-loss
// rule and no -upload would fault nothing and report injected=0; it is
// refused before anything is simulated.
func TestFaultsRefusesNetworkRulesWithoutUpload(t *testing.T) {
	dir := t.TempDir()
	campaign := filepath.Join(dir, "net.json")
	if err := os.WriteFile(campaign, []byte(`{"name":"net","rules":[{"name":"lost","class":"ack-loss","probability":0.5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-devices", "20", "-months", "0.5", "-faults", campaign, "-o", ""}, &out)
	if err == nil || !strings.Contains(err.Error(), "nothing uploads") {
		t.Errorf("cellsim -faults net.json without -upload: %v, want a refusal", err)
	}
	if out.Len() != 0 {
		t.Errorf("a refused run printed %q", out.String())
	}
}
