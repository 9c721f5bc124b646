package main

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

// TestUnknownFlagIsAUsageError: a mistyped flag fails before anything is
// simulated, for the scorecard and for chaos alike.
func TestUnknownFlagIsAUsageError(t *testing.T) {
	for _, args := range [][]string{{"-device", "10"}, {"chaos", "-device", "10"}} {
		err := run(args, io.Discard)
		if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "flag provided but not defined: -device") {
			t.Errorf("cellcheck %s: %v, want a usage error naming the flag", strings.Join(args, " "), err)
		}
	}
}

// TestScorecardOverARunDirectory: -in prints the scorecard of a saved run.
// A fleet this small cannot reproduce every claim, and a failing claim
// is errFailed (exit 1) after the whole scorecard is written.
func TestScorecardOverARunDirectory(t *testing.T) {
	res, err := fleet.Run(fleet.Scenario{Seed: 7, NumDevices: 60, Window: 72 * time.Hour, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	if err := fleet.SaveResult(dir, res); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-in", dir}, &out)
	if !errors.Is(err, errFailed) {
		t.Fatalf("cellcheck -in over %d events: %v, want errFailed", res.Dataset.Len(), err)
	}
	report := out.String()
	if !strings.Contains(report, "[FAIL] ") || !strings.HasSuffix(report, " claims reproduced\n") {
		t.Errorf("scorecard:\n%s", report)
	}
	if err := run([]string{"-in", filepath.Join(t.TempDir(), "missing")}, io.Discard); err == nil ||
		errors.Is(err, errFailed) || errors.Is(err, errUsage) {
		t.Errorf("cellcheck -in on a missing directory: %v, want a load error", err)
	}
}
