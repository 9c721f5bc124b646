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
