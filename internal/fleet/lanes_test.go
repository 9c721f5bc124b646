package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/failure"
)

// runDigest hashes events in the given order, then the run's aggregates.
func runDigest(res *Result, events []failure.Event) [32]byte {
	h := sha256.New()
	for i := range events {
		fmt.Fprintf(h, "%+v\n", events[i])
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

// orderedDigest hashes a run like digest, but with its events in the
// (Start, DeviceID, recording index) order of stableCanonicalSort rather
// than as sorted text lines. It is the order the retired shared-queue
// runner published, so the committed digests still pin the same event
// multiset and the same per-device recording order.
func orderedDigest(res *Result) [32]byte {
	events := res.Dataset.Events()
	stableCanonicalSort(events)
	return runDigest(res, events)
}

// stableCanonicalSort sorts events by (Start, DeviceID) with
// sort.SliceStable, so a device's simultaneous records keep their Each
// order.
func stableCanonicalSort(events []failure.Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		return events[i].DeviceID < events[j].DeviceID
	})
}

// orderedDigestFixture returns the committed ordered digest of one
// TestLaneRunnerEquivalence scenario, testdata/ordered_digest_<name>.txt
// (one hex line). Under -update it first writes got there.
func orderedDigestFixture(t *testing.T, name, got string) string {
	t.Helper()
	path := filepath.Join("testdata", "ordered_digest_"+name+".txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/fleet -run LaneRunnerEquivalence -update` to create it)", err)
	}
	return strings.TrimSpace(string(buf))
}

// TestLaneRunnerEquivalence pins the load-bearing contract of the lane
// runner: one seed gives one run — events in identical order, identical
// aggregates, identical fault reports — for any worker count, calm and
// faulted. Every arm's raw Each order must hash equal, and every arm must
// reproduce the committed ordered digest, which was recorded while the
// retired shared-queue runner still asserted the same bytes; -update
// rewrites it from the one-worker arm.
//
// ci/verify.sh's race stage runs it three times at one and two CPUs: the
// committed digest must not depend on GOMAXPROCS either.
func TestLaneRunnerEquivalence(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		name := "calm"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			var want string
			var wantRaw [32]byte
			for _, workers := range []int{1, 4, 7} {
				s := Scenario{Seed: 99, NumDevices: 300, Workers: workers}
				if faulted {
					s.Faults = testCampaign()
				}
				res, err := Run(s)
				if err != nil {
					t.Fatalf("lane-w%d: %v", workers, err)
				}
				if res.Dataset.Len() == 0 {
					t.Fatalf("lane-w%d: no events produced", workers)
				}
				raw := runDigest(res, res.Dataset.Events())
				if workers == 1 {
					wantRaw = raw
				} else if raw != wantRaw {
					t.Errorf("lane-w%d Each-order digest %x, one worker gives %x", workers, raw, wantRaw)
				}
				d := orderedDigest(res)
				got := hex.EncodeToString(d[:])
				if want == "" {
					want = orderedDigestFixture(t, name, got)
				}
				if got != want {
					t.Errorf("lane-w%d ordered digest %s, committed %s; if the draw-sequence change is intentional, rerun with -update", workers, got, want)
				}
			}
		})
	}
}

// TestDatasetOrderIsDeviceOrder verifies the published dataset is in
// device order — DeviceID never decreases — the order the workers' buffers
// have whatever the partitioning.
//
// ci/verify.sh's race stage runs it three times at one and two CPUs: device
// order must not depend on GOMAXPROCS either.
func TestDatasetOrderIsDeviceOrder(t *testing.T) {
	res := runFleet(t, Scenario{Seed: 7, NumDevices: 200, Workers: 3})
	if res.Dataset.Len() == 0 {
		t.Fatal("no events produced")
	}
	var prev uint64
	res.Dataset.Each(func(e *failure.Event) {
		if e.DeviceID < prev {
			t.Fatalf("dataset out of device order: dev %d after dev %d", e.DeviceID, prev)
		}
		prev = e.DeviceID
	})
}
