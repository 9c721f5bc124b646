package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// doc writes a scenario document to a file called name and returns the
// path.
func doc(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sweepPath is the path of a committed sweep document.
func sweepPath(name string) string {
	return filepath.Join("..", "..", "scenarios", "sweep", name)
}

// keys decodes a document into its keys and values.
func keys(t *testing.T, path string) map[string]any {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

// sweepDocs copies every committed sweep document, under its own name, with
// devices and workers changed, and returns the copies' paths in name order.
func sweepDocs(t *testing.T, devices, workers int) []string {
	t.Helper()
	paths, err := filepath.Glob(sweepPath("*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no sweep documents: %v", err)
	}
	dir := t.TempDir()
	for i, path := range paths {
		m := keys(t, path)
		m["devices"], m["workers"] = devices, workers
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, filepath.Base(path))
		if err := os.WriteFile(paths[i], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestUnknownFlagIsAUsageError: a mistyped or retired flag fails before
// anything is simulated.
func TestUnknownFlagIsAUsageError(t *testing.T) {
	for _, args := range [][]string{{"-device", "10"}, {"-sweep", "all", sweepPath("vanilla.json")}} {
		err := run(args, io.Discard)
		if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("cellsweep %q: %v, want a usage error naming the flag", args, err)
		}
	}
}

// TestRefusesWhatCellsweepCannotRun: a command line without a document,
// and any document that is unreadable, has an unknown key, a backend
// (cellcheck runs those) or an upload (cellsim runs those), are refused
// before anything is simulated or printed — also after a good document.
func TestRefusesWhatCellsweepCannotRun(t *testing.T) {
	upload := filepath.Join("..", "..", "scenarios", "upload.json")
	for _, c := range []struct {
		want string
		args []string
	}{
		{"want one or more scenario documents", nil},
		{"missing.json", []string{filepath.Join(t.TempDir(), "missing.json")}},
		{`unknown field "patched"`, []string{doc(t, "s.json", `{"devices":20,"patched":true}`)}},
		{"a backend is run by cellcheck", []string{filepath.Join("..", "..", "scenarios", "chaos-fleet1.json")}},
		{"an upload is run by cellsim", []string{upload}},
		{"an upload is run by cellsim", []string{sweepPath("vanilla.json"), upload}},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) || errors.Is(err, errUsage) != (len(c.args) == 0) || out.Len() != 0 {
			t.Errorf("cellsweep %q: %v after %q, want a refusal containing %q", c.args, err, out.String(), c.want)
		}
	}
}

// TestSweeps: the rows follow the documents — one per document, in
// argument order, labelled by its file name without ".json" — and the
// elapsed line ends the table.
func TestSweeps(t *testing.T) {
	var out bytes.Buffer
	args := []string{
		doc(t, "zeta.json", `{"seed":7,"devices":40,"workers":2}`),
		doc(t, "alpha.json", `{"seed":7,"devices":40,"workers":2,"policy":"never5g"}`),
	}
	if err := run(args, &out); err != nil {
		t.Fatalf("cellsweep %q: %v", args, err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "variant ") || !regexp.MustCompile(`^\(.+\)$`).MatchString(lines[3]) {
		t.Fatalf("cellsweep %q printed:\n%s", args, out.String())
	}
	for i, label := range []string{"zeta", "alpha"} {
		if !strings.HasPrefix(lines[1+i], label+" ") {
			t.Errorf("row %d = %q, want label %q", i, lines[1+i], label)
		}
	}
}

// TestSweepDocumentsMatchTheirNames: every committed sweep document parses,
// runs no campaign, backend or upload, and differs from vanilla.json in
// exactly the keys its name names; a document whose name names nothing
// fails.
func TestSweepDocumentsMatchTheirNames(t *testing.T) {
	named := map[string]map[string]any{
		"vanilla":                     {},
		"stability":                   {"policy": "stability"},
		"stability-dual-connectivity": {"policy": "stability", "dual_connectivity": true},
		"never-5g":                    {"policy": "never5g"},
		"timp":                        {"trigger": "timp"},
		"aggressive-5-5-5":            {"trigger": "5,5,5"},
		"no-fp-filter":                {"disable_fp_filter": true},
	}
	vanilla := keys(t, sweepPath("vanilla.json"))
	for _, diff := range named {
		for k := range diff {
			if _, ok := vanilla[k]; ok {
				t.Errorf("vanilla: sets %q, which a variant's name names", k)
			}
		}
	}
	paths, err := filepath.Glob(sweepPath("*.json"))
	if err != nil || len(paths) != len(named) {
		t.Errorf("%d sweep documents (%v), want %d", len(paths), err, len(named))
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		s, b, err := fleet.LoadScenario(path)
		if err != nil || s.Faults != nil || b != nil || s.UploadAddr != "" {
			t.Errorf("%s: %v, faults %v, backend %+v, upload_addr %q", name, err, s.Faults != nil, b, s.UploadAddr)
		}
		diff, ok := named[name]
		if !ok {
			t.Errorf("%s: a name that says nothing about what the document changes", name)
			continue
		}
		want := maps.Clone(vanilla)
		maps.Copy(want, diff)
		if got := keys(t, path); !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want vanilla.json with %v: %v", name, got, diff, want)
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

// TestSweepDeterministicAcrossWorkers: the committed sweep documents print
// the same table whether each runs on one worker or four; only the timing
// line differs.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	timing := regexp.MustCompile(`(?m)^\(.*\)$`)
	tables := make([]string, 2)
	for i, workers := range []int{1, 4} {
		var out bytes.Buffer
		if err := run(sweepDocs(t, 60, workers), &out); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		tables[i] = timing.ReplaceAllString(out.String(), "(timing)")
	}
	if tables[0] != tables[1] {
		t.Fatalf("tables differ across worker counts:\nworkers 1:\n%s\nworkers 4:\n%s", tables[0], tables[1])
	}
	for _, variant := range []string{"never-5g ", "aggressive-5-5-5 ", "no-fp-filter "} {
		if !strings.Contains(tables[0], "\n"+variant) {
			t.Errorf("no %q row in:\n%s", variant, tables[0])
		}
	}
}

// TestSweepOneDevice: a one-phone fleet, which may record no 5G phone and
// no stall at all, still prints finite numbers.
func TestSweepOneDevice(t *testing.T) {
	var out bytes.Buffer
	if err := run(sweepDocs(t, 1, 1), &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Fatalf("a one-device sweep printed a non-finite number:\n%s", s)
	}
}

// TestSweepSurfacesRunErrors: a variant whose run fails ends the table with
// an error naming it.
func TestSweepSurfacesRunErrors(t *testing.T) {
	// analysis.Simulate refuses an uploading run: its events would go to
	// the collector, not to the pass.
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
