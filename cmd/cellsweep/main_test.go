package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

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

// TestUnknownFlagIsAUsageError: a mistyped flag fails before anything is
// simulated.
func TestUnknownFlagIsAUsageError(t *testing.T) {
	err := run([]string{"-device", "10"}, io.Discard)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "flag provided but not defined: -device") {
		t.Fatalf("cellsweep -device 10: %v, want a usage error naming the flag", err)
	}
}

// TestRefusesWhatCellsweepCannotRun: a command line without exactly one
// readable document, and a document with an unknown key, a backend
// (cellcheck runs those) or keys the variants set (policy, trigger, ...),
// are refused before anything is simulated or printed.
func TestRefusesWhatCellsweepCannotRun(t *testing.T) {
	for want, args := range map[string][]string{
		"want one scenario document, got 0 arguments": nil,
		"want one scenario document, got 2 arguments": {"a.json", "b.json"},
		"missing.json":                  {filepath.Join(t.TempDir(), "missing.json")},
		`unknown field "patched"`:       {doc(t, `{"devices":20,"patched":true}`)},
		"a backend is run by cellcheck": {filepath.Join("..", "..", "scenarios", "chaos-fleet1.json")},
		"leave out policy, trigger":     {filepath.Join("..", "..", "scenarios", "report-patched.json")},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), want) || errors.Is(err, errUsage) != (len(args) != 1) || out.Len() != 0 {
			t.Errorf("cellsweep %q: %v after %q, want a refusal containing %q", args, err, out.String(), want)
		}
	}
}

// TestSweeps: an unknown sweep fails naming it, before anything is
// simulated or printed; a known one prints one row per variant.
func TestSweeps(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-sweep", "bogus", doc(t, `{"seed":7,"devices":40}`)}, &out)
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), `"bogus"`) || out.Len() != 0 {
		t.Fatalf("cellsweep -sweep bogus: %v after %q, want an error naming the sweep and no output", err, out.String())
	}

	if err := run([]string{"-sweep", "fpfilter", doc(t, `{"seed":7,"devices":40,"workers":2}`)}, &out); err != nil {
		t.Fatalf("cellsweep -sweep fpfilter: %v", err)
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 4 || lines[0] != "== fpfilter sweep (40 devices, seed 7) ==" || !strings.HasPrefix(lines[1], "variant") {
		t.Fatalf("the fpfilter sweep printed:\n%s", out.String())
	}
	for i, variant := range []string{"filtering on (Android-MOD)", "filtering off (ablation)"} {
		if !strings.HasPrefix(lines[2+i], variant+" ") {
			t.Errorf("row %d = %q, want variant %q", i, lines[2+i], variant)
		}
	}
}

// TestSweep: on the same seed the stability-compatible policy with dual
// connectivity records no more failures per 5G phone than vanilla, and
// both rows are populated.
func TestSweep(t *testing.T) {
	var out bytes.Buffer
	err := sweepTable(&out, []variant{
		{name: "vanilla", scenario: fleet.Scenario{Seed: 2, NumDevices: 300, Workers: 2}},
		{name: "stability", scenario: fleet.Scenario{Seed: 2, NumDevices: 300, Workers: 2, Policy: fleet.PolicyStability, DualConnectivity: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each row is the variant name in 32 columns, then five metrics.
	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		rows[strings.TrimSpace(line[:32])] = strings.Fields(line[32:])
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for name, r := range rows {
		if r[0] == "0" || r[1] == "0.0%" || r[4] == "0" {
			t.Errorf("%s: degenerate row %v", name, r)
		}
	}
	vanilla, _ := strconv.ParseFloat(rows["vanilla"][2], 64)
	stability, _ := strconv.ParseFloat(rows["stability"][2], 64)
	if stability > vanilla {
		t.Errorf("stability policy raised the 5G frequency: %v", rows)
	}
}

// TestSweepDeterministicAcrossWorkers: every sweep prints the same table
// whether the document runs each variant on one worker or four; only the
// timing lines differ.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	timing := regexp.MustCompile(`(?m)^\(.*\)$`)
	tables := make([]string, 2)
	for i, workers := range []string{"1", "4"} {
		var out bytes.Buffer
		if err := run([]string{"-sweep", "all", doc(t, `{"seed":7,"devices":60,"workers":`+workers+`}`)}, &out); err != nil {
			t.Fatalf("workers %s: %v", workers, err)
		}
		tables[i] = timing.ReplaceAllString(out.String(), "(timing)")
	}
	if tables[0] != tables[1] {
		t.Fatalf("tables differ across worker counts:\nworkers 1:\n%s\nworkers 4:\n%s", tables[0], tables[1])
	}
	for _, variant := range []string{"never-5G ", "aggressive 5/5/5s ", "filtering off (ablation) "} {
		if !strings.Contains(tables[0], "\n"+variant) {
			t.Errorf("no %q row in:\n%s", variant, tables[0])
		}
	}
}

// TestSweepOneDevice: a one-phone fleet, which may record no 5G phone and
// no stall at all, still prints finite numbers.
func TestSweepOneDevice(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sweep", "all", doc(t, `{"devices":1,"workers":1}`)}, &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Fatalf("a one-device sweep printed a non-finite number:\n%s", s)
	}
}

// TestSweepSurfacesRunErrors: a variant whose run fails ends the table with
// an error naming it.
func TestSweepSurfacesRunErrors(t *testing.T) {
	// An unreachable collector makes Run fail after its flush retries (a
	// fleet this size always records events, so the flush is real).
	err := sweepTable(io.Discard, []variant{{
		name:     "bad-upload",
		scenario: fleet.Scenario{Seed: 1, NumDevices: 200, Workers: 1, UploadAddr: "127.0.0.1:1"},
	}})
	if err == nil || !strings.Contains(err.Error(), `"bad-upload"`) {
		t.Fatalf("sweepTable = %v, want an error naming the variant", err)
	}
}

// TestSweepPropagatesErrors: a failed run stops the table where it fails —
// no later variant runs or prints a row — and its error stays wrapped, not
// flattened into text.
func TestSweepPropagatesErrors(t *testing.T) {
	var out bytes.Buffer
	err := sweepTable(&out, []variant{
		{name: "bad", scenario: fleet.Scenario{NumDevices: 10, UploadAddr: "127.0.0.1:1"}},
		{name: "after", scenario: fleet.Scenario{Seed: 1, NumDevices: 10, Workers: 1}},
	})
	if err == nil || errors.Unwrap(err) == nil {
		t.Fatalf("sweepTable = %v, want the run's error wrapped", err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "variant") {
		t.Fatalf("a sweep that failed on its first variant printed:\n%s", out.String())
	}
}
