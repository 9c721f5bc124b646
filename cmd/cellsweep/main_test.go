package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestUnknownFlagIsAUsageError: a mistyped flag fails before anything is
// simulated.
func TestUnknownFlagIsAUsageError(t *testing.T) {
	err := run([]string{"-device", "10"}, io.Discard)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "flag provided but not defined: -device") {
		t.Fatalf("cellsweep -device 10: %v, want a usage error naming the flag", err)
	}
}

// TestSweeps: an unknown sweep fails naming it, before anything is
// simulated or printed; a known one prints one row per variant.
func TestSweeps(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-sweep", "bogus"}, &out)
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), `"bogus"`) || out.Len() != 0 {
		t.Fatalf("cellsweep -sweep bogus: %v after %q, want an error naming the sweep and no output", err, out.String())
	}

	if err := run([]string{"-sweep", "fpfilter", "-devices", "40", "-workers", "2"}, &out); err != nil {
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
