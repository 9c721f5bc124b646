package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// generatedLine is the report's one timing line, the only line that may
// differ between two runs of one seed.
var generatedLine = regexp.MustCompile(`(?m)^Generated in .*\.$`)

// TestExperimentsPinned regenerates the committed EXPERIMENTS.md from the
// document of the package's usage and requires the same bytes, apart
// from the timing line: a change that moves any paper number shows up
// here, in its own diff.
func TestExperimentsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full report (a few seconds)")
	}
	want, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{filepath.Join("..", "..", "scenarios", "report.json")}, &got); err != nil {
		t.Fatalf("cellrepro scenarios/report.json: %v", err)
	}
	mask := func(b []byte) string { return generatedLine.ReplaceAllString(string(b), "Generated in (masked).") }
	g, w := mask(got.Bytes()), mask(want)
	if g == w {
		return
	}
	gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("the report differs from EXPERIMENTS.md at line %d:\ngot:  %q\nwant: %q\n(regenerate it with `go run ./cmd/cellrepro scenarios/report.json > EXPERIMENTS.md` if the change is meant to move the paper numbers)",
				i+1, line(gl, i), line(wl, i))
		}
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of report)"
}

// TestUnknownFlagIsAUsageError: a mistyped flag fails before anything is
// simulated.
func TestUnknownFlagIsAUsageError(t *testing.T) {
	err := run([]string{"-device", "10"}, io.Discard)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "flag provided but not defined: -device") {
		t.Fatalf("cellrepro -device 10: %v, want a usage error naming the flag", err)
	}
}

// TestRefusesWhatCellreproCannotRun: a command line without exactly one
// readable document, and a document with an unknown key, a backend
// (cellcheck runs those) or keys the patched run sets (policy, trigger,
// dual_connectivity), are refused before anything is simulated or printed.
func TestRefusesWhatCellreproCannotRun(t *testing.T) {
	dir := t.TempDir()
	unknown := filepath.Join(dir, "unknown.json")
	if err := os.WriteFile(unknown, []byte(`{"devices":20,"patched":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for want, args := range map[string][]string{
		"want one scenario document, got 0 arguments": nil,
		"want one scenario document, got 2 arguments": {"a.json", "b.json"},
		"missing.json":                  {filepath.Join(dir, "missing.json")},
		`unknown field "patched"`:       {unknown},
		"a backend is run by cellcheck": {filepath.Join("..", "..", "scenarios", "chaos-fleet1.json")},
		"leave out policy, trigger":     {filepath.Join("..", "..", "scenarios", "report-patched.json")},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), want) || errors.Is(err, errUsage) != (len(args) != 1) || out.Len() != 0 {
			t.Errorf("cellrepro %q: %v after %q, want a refusal containing %q", args, err, out.String(), want)
		}
	}
}
