package main

import (
	"io"
	"strings"
	"testing"
)

// TestChaosArms runs every upload arm of the one harness at tier-1 size:
// all checks pass, the I6 segment checks ride on every arm, I7 appears
// only with more than one collector, and each kill action brings its own
// "fired" check.
func TestChaosArms(t *testing.T) {
	size := []string{"-devices", "150", "-months", "1", "-workers", "4", "-seed", "7"}
	for _, tc := range []struct {
		flags string
		want  []string // ids that must be present, beyond I1-I5 and the I6 segment checks
		i7    bool
	}{
		{flags: "-network"},
		{flags: "-network -restart", want: []string{"I6/restart-fired"}},
		{flags: "-fleet 3 -restart", want: []string{"I6/restart-fired", "I7/single-collector-equal"}, i7: true},
		{flags: "-fleet 3 -failover", want: []string{"I7/failover-fired", "I7/takeover-reroute", "I7/union-exactly-once", "I7/single-collector-equal"}, i7: true},
	} {
		t.Run(tc.flags, func(t *testing.T) {
			checks, err := runChaos(append(strings.Fields(tc.flags), size...), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			ids := map[string]bool{}
			for _, c := range checks {
				ids[c.id] = true
				if !c.pass {
					t.Errorf("[FAIL] %s %s — %s", c.id, c.text, c.detail)
				}
				if strings.HasPrefix(c.id, "I7/") && !tc.i7 {
					t.Errorf("%s reported with a single collector", c.id)
				}
			}
			for _, id := range append(tc.want, "I2/integrity", "I4/exactly-once", "I5/streaming-batch",
				"I6/segments-live", "I6/segments-batch-equal") {
				if !ids[id] {
					t.Errorf("check %s missing", id)
				}
			}
		})
	}
}

// TestChaosRejectsFailoverWithoutSurvivors: a takeover needs someone to
// take over, and the kill monitor has one action per run.
func TestChaosRejectsFailoverWithoutSurvivors(t *testing.T) {
	for _, flags := range []string{"-failover", "-fleet 1 -failover", "-fleet 3 -restart -failover"} {
		if _, err := runChaos(strings.Fields(flags), io.Discard); err == nil {
			t.Errorf("cellcheck chaos %s ran; want a usage error", flags)
		}
	}
}
