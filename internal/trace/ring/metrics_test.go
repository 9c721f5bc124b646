package ring

import (
	"testing"

	"repro/internal/metrics"
)

func metricVal(t *testing.T, name string) float64 {
	t.Helper()
	v, ok := metrics.Default().Value(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return v
}

// TestMembershipMetric: joins and leaves move
// ring_membership_changes_total; address updates do not.
func TestMembershipMetric(t *testing.T) {
	before := metricVal(t, "ring_membership_changes_total")
	rt := NewRouter(1, 16)
	rt.Add("a", "addr1")
	rt.Add("b", "addr2")
	rt.Add("a", "addr1-moved") // address update, not a membership change
	rt.Add("b", "addr2-moved")
	rt.Remove("ghost") // unknown: no change
	rt.Remove("a")
	if got, want := metricVal(t, "ring_membership_changes_total")-before, 3.0; got != want {
		t.Fatalf("ring_membership_changes_total moved by %v, want %v (add a, add b, remove a)", got, want)
	}
}
