package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestUnknownFlagIsAUsageError: a mistyped flag fails before any probe is
// sent.
func TestUnknownFlagIsAUsageError(t *testing.T) {
	err := run([]string{"-dnss", "127.0.0.1:53"}, io.Discard)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "flag provided but not defined: -dnss") {
		t.Fatalf("liveprobe -dnss: %v, want a usage error naming the flag", err)
	}
}

// TestDemoPrintsEveryVerdict runs the flagless demo against its local
// servers (no network needed): one line per case, each with the verdict
// the case is built to produce.
func TestDemoPrintsEveryVerdict(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatalf("liveprobe: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	want := []struct{ title, verdict string }{
		{"healthy network (stall fixed)", "recovered"},
		{"DNS resolution unavailable (false positive)", "dns-false-positive"},
		{"network-side stall (nothing answers)", "still-stalled"},
		{"system-side fault (loopback dead, false positive)", "system-side-false-positive"},
	}
	if len(lines) != len(want) {
		t.Fatalf("the demo printed %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, w := range want {
		title, rest, ok := strings.Cut(lines[i], " -> ")
		if got := strings.Fields(rest); !ok || strings.TrimSpace(title) != w.title || len(got) == 0 || got[0] != w.verdict {
			t.Errorf("line %d = %q, want %q -> %s", i, lines[i], w.title, w.verdict)
		}
	}
}
