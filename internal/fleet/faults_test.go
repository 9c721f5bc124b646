package fleet

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// testCampaign exercises every fault class at once: a blackout, a flap, a
// regional RSS degradation, an ISP setup storm with forced causes, a RAT
// downgrade, and a stall storm, all inside the default window.
func testCampaign() *faultinject.Campaign {
	ispA, ispB := simnet.ISPA, simnet.ISPB
	urban, rural := geo.Urban, geo.Rural
	return &faultinject.Campaign{
		Name: "test-all-classes",
		Rules: []faultinject.Rule{
			{Name: "blackout", Class: faultinject.ClassBSBlackout,
				Sel:   faultinject.Selector{ISP: &ispA, BSFraction: 0.3},
				Start: 30 * 24 * time.Hour, Window: 20 * 24 * time.Hour},
			{Name: "flap", Class: faultinject.ClassBSFlap,
				Sel:   faultinject.Selector{Region: &urban, BSFraction: 0.25},
				Start: 80 * 24 * time.Hour, Window: 15 * 24 * time.Hour,
				Period: 8 * time.Hour, DutyDown: 0.5},
			{Name: "rss", Class: faultinject.ClassRSSDegrade,
				Sel:   faultinject.Selector{Region: &rural},
				Start: 10 * 24 * time.Hour, Window: 30 * 24 * time.Hour, Intensity: 2},
			{Name: "storm", Class: faultinject.ClassSetupStorm,
				Sel:   faultinject.Selector{ISP: &ispB},
				Start: 50 * 24 * time.Hour, Window: 25 * 24 * time.Hour, Intensity: 2,
				Causes: []telephony.FailCause{telephony.CauseEMMAccessBarred, telephony.CauseInvalidEMMState}},
			{Name: "downgrade", Class: faultinject.ClassRATDowngrade,
				Sel:   faultinject.Selector{ISP: &ispA, RAT: telephony.RAT5G},
				Start: 100 * 24 * time.Hour, Window: 20 * 24 * time.Hour},
			{Name: "stalls", Class: faultinject.ClassStallStorm,
				Sel:   faultinject.Selector{},
				Start: 150 * 24 * time.Hour, Window: 20 * 24 * time.Hour, Intensity: 1},
		},
	}
}

// digest canonically serializes everything a run produces — every event
// with its full in-situ context, the aggregate matrices, the population,
// the integrity report, and the fault report — and hashes it. Two runs
// are "byte-identical" iff their digests match.
func digest(t *testing.T, res *Result) [32]byte {
	t.Helper()
	lines := make([]string, 0, res.Dataset.Len())
	res.Dataset.Each(func(e *failure.Event) {
		lines = append(lines, fmt.Sprintf("%+v", *e))
	})
	// Dataset append order depends on shard completion order; the content
	// must not.
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n%+v\n%+v\n",
		res.Population, res.Transitions, res.Dwell, res.Monitor, res.Integrity)
	if res.Faults != nil {
		fmt.Fprintf(h, "%+v\n", *res.Faults)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// TestDeterminismAcrossWorkerCountsWithFaults pins the worker-count
// independence contract for both calm and faulted runs: the same scenario
// at Workers=1, 4, and 7 must produce byte-identical datasets, aggregates,
// and fault reports.
func TestDeterminismAcrossWorkerCountsWithFaults(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		name := "calm"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			var want [32]byte
			for i, workers := range []int{1, 4, 7} {
				s := Scenario{Seed: 99, NumDevices: 300, Workers: workers}
				if faulted {
					s.Faults = testCampaign()
				}
				res, err := Run(s)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				d := digest(t, res)
				if i == 0 {
					want = d
					if res.Dataset.Len() == 0 {
						t.Fatal("no events produced")
					}
					continue
				}
				if d != want {
					t.Errorf("workers=%d: digest %x != workers=1 digest %x", workers, d, want)
				}
			}
		})
	}
}

// TestFaultCampaignRecoveryInvariants runs the all-classes campaign once
// and asserts the chaos invariants at the API level: every episode-bearing
// rule injected work and recovered all of it, no device wedged, and the
// failure-kind mix shifted toward the injected classes.
func TestFaultCampaignRecoveryInvariants(t *testing.T) {
	calm := Scenario{Seed: 5, NumDevices: 500, Workers: 4}
	base, err := Run(calm)
	if err != nil {
		t.Fatal(err)
	}
	s := calm
	s.Faults = testCampaign()
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil {
		t.Fatal("faulted run produced no fault report")
	}
	if n := res.Faults.Unresolved(); n != 0 {
		t.Errorf("unresolved injected episodes: %d\n%s", n, res.Faults)
	}
	for _, rr := range res.Faults.Rules {
		class, err := faultinject.ParseClass(rr.Class)
		if err != nil {
			t.Fatalf("report rule %q: %v", rr.Name, err)
		}
		if _, bearing := class.ExpectedKind(); bearing && rr.Injected == 0 {
			t.Errorf("rule %q (%s) injected nothing", rr.Name, rr.Class)
		}
	}
	if !res.Integrity.Clean() {
		t.Errorf("integrity violated: %+v", res.Integrity)
	}
	kindCount := func(r *Result, k failure.Kind) int {
		n := 0
		r.Dataset.Each(func(e *failure.Event) {
			if e.Kind == k {
				n++
			}
		})
		return n
	}
	for _, k := range []failure.Kind{failure.OutOfService, failure.DataSetupError, failure.DataStall} {
		if got, base := kindCount(res, k), kindCount(base, k); got <= base {
			t.Errorf("%v: faulted %d <= baseline %d, expected an upward shift", k, got, base)
		}
	}
	// The calm run must carry no fault report.
	if base.Faults != nil {
		t.Errorf("calm run unexpectedly carries a fault report: %+v", base.Faults)
	}
}

// TestFaultCampaignLeavesCalmRunUntouched pins that wiring a nil campaign
// through the runner changes nothing: a calm run before and after the
// fault-injection subsystem must be draw-for-draw identical, which the
// digest equality across this test's two runs (and the golden smoke test's
// committed histogram) witnesses.
func TestFaultCampaignLeavesCalmRunUntouched(t *testing.T) {
	s := Scenario{Seed: 123, NumDevices: 200, Workers: 3}
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, a) != digest(t, b) {
		t.Error("identical calm scenarios produced different digests")
	}
	if a.Faults != nil {
		t.Errorf("calm run carries a fault report")
	}
}
