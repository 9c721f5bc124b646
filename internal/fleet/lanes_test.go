package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/failure"
)

// orderedDigest canonically serializes a run like digest, but WITHOUT
// sorting the event lines: it hashes the dataset in iteration order. The
// canonical cross-worker merge promises the stronger contract that the
// dataset ORDER — not just its content — is independent of worker count.
func orderedDigest(t *testing.T, res *Result) [32]byte {
	t.Helper()
	h := sha256.New()
	res.Dataset.Each(func(e *failure.Event) {
		fmt.Fprintf(h, "%+v\n", *e)
	})
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n%+v\n%+v\n",
		res.Population, res.Transitions, res.Dwell, res.Monitor, res.Integrity)
	if res.Faults != nil {
		fmt.Fprintf(h, "%+v\n", *res.Faults)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
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
// faulted. Every arm must reproduce the committed ordered digest, which
// was recorded while the retired shared-queue runner still asserted the
// same bytes; -update rewrites it from the one-worker arm.
func TestLaneRunnerEquivalence(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		name := "calm"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			var want string
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
				d := orderedDigest(t, res)
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

// TestDatasetOrderIsCanonical verifies the published dataset is sorted by
// the canonical (Start, DeviceID) key — the order the cross-worker merge
// guarantees regardless of partitioning.
func TestDatasetOrderIsCanonical(t *testing.T) {
	res := runFleet(t, Scenario{Seed: 7, NumDevices: 200, Workers: 3})
	var prev failure.Event
	first := true
	res.Dataset.Each(func(e *failure.Event) {
		if !first {
			if e.Start < prev.Start || (e.Start == prev.Start && e.DeviceID < prev.DeviceID) {
				t.Fatalf("dataset out of canonical order: (%v, dev %d) after (%v, dev %d)",
					e.Start, e.DeviceID, prev.Start, prev.DeviceID)
			}
		}
		prev = *e
		first = false
	})
	if first {
		t.Fatal("no events produced")
	}
}

// stableCanonicalSort is the oracle for sortCanonical: sort.SliceStable on
// (Start, DeviceID).
func stableCanonicalSort(events []failure.Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		return events[i].DeviceID < events[j].DeviceID
	})
}

// TestSortCanonicalIsTheStableSort checks the radix sort and in-place
// cycle permutation against sort.SliceStable on device-ordered buffers (a
// lane's shape, sortCanonical's precondition) full of (Start, DeviceID)
// ties — a device's simultaneous records must keep their recording order,
// which ModelID stands in for here — across sizes that give fixed points,
// short cycles and one long cycle; and on Starts that are negative or
// reach past 2⁴⁴ ns, so every digit of the key varies.
func TestSortCanonicalIsTheStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 17, 1000, 100_000} {
		for _, shape := range []string{"ties", "wide"} {
			events := make([]failure.Event, n)
			for i := range events {
				events[i] = failure.Event{
					Start:    time.Duration(r.Intn(1+n/8)) * time.Second,
					DeviceID: uint64(r.Intn(4)),
				}
				if shape == "wide" {
					// Negative and past 2⁴⁴ ns, with ties still likely at
					// small n.
					events[i].Start = time.Duration(r.Int63n(1<<62)-1<<61) >> uint(r.Intn(64))
					events[i].DeviceID = r.Uint64() >> uint(r.Intn(64))
				}
			}
			sort.SliceStable(events, func(i, j int) bool { return events[i].DeviceID < events[j].DeviceID })
			if n == 17 && shape == "ties" {
				// Reverse order, no ties: one cycle per pair and a fixed point.
				for i := range events {
					events[i].Start = time.Duration(n-i) * time.Second
				}
			}
			for i := range events {
				events[i].ModelID = uint16(i)
				events[i].Duration = time.Duration(i) // ModelID wraps at 100 000
			}
			want := append([]failure.Event(nil), events...)
			stableCanonicalSort(want)
			sortCanonical(events)
			for i := range events {
				if events[i] != want[i] {
					t.Fatalf("n=%d %s: position %d holds record %d, the stable sort puts record %d there",
						n, shape, i, int64(events[i].Duration), int64(want[i].Duration))
				}
			}
		}
	}
}
