package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// generatedLine is the report's one timing line, the only line that may
// differ between two runs of one seed.
var generatedLine = regexp.MustCompile(`(?m)^Generated in .*\.$`)

// TestExperimentsPinned regenerates the committed EXPERIMENTS.md with the
// command line of the package's usage and requires the same bytes, apart
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
	if err := run([]string{"-devices", "6000", "-seed", "7"}, &got); err != nil {
		t.Fatalf("cellrepro -devices 6000 -seed 7: %v", err)
	}
	mask := func(b []byte) string { return generatedLine.ReplaceAllString(string(b), "Generated in (masked).") }
	g, w := mask(got.Bytes()), mask(want)
	if g == w {
		return
	}
	gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("the report differs from EXPERIMENTS.md at line %d:\ngot:  %q\nwant: %q\n(regenerate it with `go run ./cmd/cellrepro -devices 6000 -seed 7 > EXPERIMENTS.md` if the change is meant to move the paper numbers)",
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
