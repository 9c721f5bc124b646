package main

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestRetiredFlagsAreUsageErrors: cellserve hosts no collector any more
// (the live tier is cmd/collector), and asking it to must fail, not serve
// a snapshot with the flag ignored.
func TestRetiredFlagsAreUsageErrors(t *testing.T) {
	for _, retired := range [][]string{
		{"-live"},
		{"-collector", "127.0.0.1:0"},
		{"-store-dir", "store"},
		{"-context", "run"},
		{"-drain-grace", "1s"},
		{"-live-buckets", "60"},
		{"-live-bucket", "1h"},
		{"-fleet", "3"},
		{"-ring-seed", "7"},
	} {
		// Were the flag accepted, the missing run directory would end the run.
		err := run(append([]string{"-in", t.TempDir() + "/missing"}, retired...), io.Discard)
		if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "flag provided but not defined: "+retired[0]) {
			t.Errorf("cellserve %s: %v, want a usage error naming the flag", strings.Join(retired, " "), err)
		}
	}
}
