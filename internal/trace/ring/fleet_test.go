package ring

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/trace"
)

// oneShotAckLoss injects exactly one ack-loss fault: the batch (dev,
// seq) is delivered and durably stored, but the connection dies before
// the ack — the duplicate-risk case a takeover must dedup.
type oneShotAckLoss struct {
	dev, seq uint64
	used     bool
}

func (c *oneShotAckLoss) UploadFault(device, seq uint64) trace.UploadFaultClass {
	if !c.used && device == c.dev && seq == c.seq {
		c.used = true
		return trace.FaultAckLoss
	}
	return trace.FaultNone
}

func (c *oneShotAckLoss) UploadOutcome(device uint64, acked bool) {}

// fleetRig is a 3-collector fleet with one ring-routed uploader per
// device and a running account of what the devices recorded.
type fleetRig struct {
	t              *testing.T
	dir            string
	ds             *trace.Dataset
	fc             *FleetCollector
	ups            []*trace.Uploader
	recorded       trace.Digest
	recordedEvents int
}

func newFleetRig(t *testing.T, devices int) *fleetRig {
	t.Helper()
	r := &fleetRig{t: t, dir: t.TempDir(), ds: trace.NewDataset()}
	fc, err := StartFleet(3, r.ds, FleetOptions{
		Seed:  7,
		Dir:   r.dir,
		Store: trace.SegStoreOptions{SegmentSize: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	r.fc = fc
	for dev := uint64(0); dev < uint64(devices); dev++ {
		u := trace.NewUploader(fc.Router().Target(dev), dev)
		u.SetRouter(fc.Router())
		// High threshold: flushes happen only where the test places them,
		// so an ack-lost batch is not retried before the kill.
		u.FlushThreshold = 1 << 20
		u.SetWiFi(true)
		r.ups = append(r.ups, u)
		t.Cleanup(func() { u.Close() })
	}
	return r
}

func (r *fleetRig) record(dev uint64, n int) {
	for i := 0; i < n; i++ {
		e := failure.Event{DeviceID: dev, Kind: failure.DataStall, Duration: time.Duration(i+1) * time.Second}
		r.recorded.Add(trace.EventDigest(&e))
		r.recordedEvents++
		r.ups[dev].Record(e)
	}
}

// wave records n events on every device and flushes each to its owner,
// giving every flush the stated number of attempts.
func (r *fleetRig) wave(name string, n, attempts int) {
	r.t.Helper()
	for dev := range r.ups {
		r.record(uint64(dev), n)
		err := r.ups[dev].Flush()
		for a := 1; a < attempts && err != nil; a++ {
			err = r.ups[dev].Flush()
		}
		if err != nil {
			r.t.Fatalf("%s flush dev %d: %v", name, dev, err)
		}
	}
}

// storeAckLost makes device 0's owner durably store one more batch whose
// ack is lost — the duplicate-risk case a kill must dedup on retry — and
// returns that owner's index.
func (r *fleetRig) storeAckLost() int {
	r.t.Helper()
	victim := r.fc.OwnerIndex(0)
	if victim < 0 {
		r.t.Fatal("no owner for device 0")
	}
	r.ups[0].SetChaos(&oneShotAckLoss{dev: 0, seq: 2})
	r.record(0, 4)
	if err := r.ups[0].Flush(); err == nil {
		r.t.Fatal("ack-loss flush unexpectedly succeeded")
	}
	r.ups[0].SetChaos(nil)
	// The fault severed the client side only; wait for the victim to
	// finish the durable admit (visible in the shared dataset, appended
	// after persist) so the kill provably leaves the batch on disk.
	for deadline := time.Now().Add(5 * time.Second); r.ds.Len() < r.recordedEvents; {
		if time.Now().After(deadline) {
			r.t.Fatalf("ack-lost batch never admitted: %d/%d", r.ds.Len(), r.recordedEvents)
		}
		time.Sleep(time.Millisecond)
	}
	return victim
}

// checkExactlyOnce asserts the shared dataset and — after a drain and
// seal — the union of every source's segments both equal the recorded
// multiset.
func (r *fleetRig) checkExactlyOnce() {
	r.t.Helper()
	if r.fc.DedupHits() == 0 {
		r.t.Fatal("the victim's ack-lost batch was never deduped")
	}
	if got := r.ds.Len(); got != r.recordedEvents {
		r.t.Fatalf("dataset holds %d events, recorded %d", got, r.recordedEvents)
	}
	if got := r.ds.MultisetDigest(); got != r.recorded {
		r.t.Fatalf("dataset digest %s != recorded %s", got, r.recorded)
	}
	// Hang up first: Drain otherwise waits out its grace on idle uploaders.
	for _, u := range r.ups {
		u.Close()
	}
	if err := r.fc.Drain(5 * time.Second); err != nil {
		r.t.Fatal(err)
	}
	if err := r.fc.CloseStores(); err != nil {
		r.t.Fatal(err)
	}
	sources := r.fc.Sources()
	if len(sources) != 3 {
		r.t.Fatalf("Sources returned %d stores, want 3", len(sources))
	}
	var stored trace.Digest
	storedEvents := 0
	for _, src := range sources {
		for _, info := range src.Store.Segments() {
			if !info.Sealed {
				r.t.Fatalf("%s segment %d not sealed after CloseStores", src.Name, info.ID)
			}
			err := src.Store.ReadSegment(info.ID, func(b *trace.Batch) error {
				for i := range b.Events {
					stored.Add(trace.EventDigest(&b.Events[i]))
					storedEvents++
				}
				return nil
			})
			if err != nil {
				r.t.Fatal(err)
			}
		}
	}
	if storedEvents != r.recordedEvents || stored != r.recorded {
		r.t.Fatalf("segment union: %d events digest %s, recorded %d digest %s",
			storedEvents, stored, r.recordedEvents, r.recorded)
	}
}

// TestFleetFailoverExactlyOnce drives a 3-collector fleet through a
// mid-run SIGKILL of one member and checks the I7 contract end to end:
// the shared dataset equals the recorded multiset exactly once, a batch
// the victim stored without acking dedups on its survivor (seeded
// marks), and the union of sealed segments — served through Sources,
// including the victim's adopted read-only store — replays to the same
// digest.
func TestFleetFailoverExactlyOnce(t *testing.T) {
	r := newFleetRig(t, 8)
	r.wave("wave-1", 8, 1)
	victim := r.storeAckLost()

	takeover0 := metricVal(t, "trace_collector_takeover_devices")
	if err := r.fc.Fail(victim); err != nil {
		t.Fatal(err)
	}
	if r.fc.Alive(victim) {
		t.Fatal("victim still alive after Fail")
	}
	if metricVal(t, "trace_collector_takeover_devices") <= takeover0 {
		t.Fatal("trace_collector_takeover_devices did not move on takeover")
	}
	if got := r.fc.OwnerIndex(0); got == victim || got < 0 {
		t.Fatalf("device 0 still owned by the dead member (owner %d)", got)
	}
	if err := r.fc.Restart(victim); err == nil {
		t.Fatal("Restart of a failed member succeeded")
	}

	// Wave 2: the router now names survivors; every uploader (including
	// the victim's former devices) must land exactly once.
	r.wave("wave-2", 8, 1)
	if r.ups[0].Reroutes() == 0 {
		t.Fatal("device 0 never rerouted off the dead collector")
	}
	r.checkExactlyOnce()
}

// TestFleetRestartExactlyOnce drives the same fleet through a SIGKILL and
// reboot-from-disk of one member: the retry of a batch it stored without
// acking lands on the same address and dedups against the replayed marks,
// no device reroutes, the other members are untouched, and every member
// still serves a read-write store whose segments replay to the recorded
// multiset.
func TestFleetRestartExactlyOnce(t *testing.T) {
	r := newFleetRig(t, 8)
	r.wave("wave-1", 8, 1)
	victim := r.storeAckLost()

	type memberState struct {
		addr  string
		marks map[uint64]uint64
	}
	before := make([]memberState, r.fc.Len())
	for i, src := range r.fc.Sources() {
		before[i] = memberState{addr: r.fc.Addr(i), marks: src.Store.Marks()}
	}
	if before[victim].marks[0] != 2 {
		t.Fatalf("victim's store marks device 0 at seq %d, want 2 (the ack-lost batch)", before[victim].marks[0])
	}

	if err := r.fc.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if !r.fc.Alive(victim) || r.fc.OwnerIndex(0) != victim {
		t.Fatal("a restarted member must stay alive and keep its devices")
	}
	for i, src := range r.fc.Sources() {
		if got := r.fc.Addr(i); got != before[i].addr {
			t.Errorf("col-%d moved from %s to %s across the restart", i, before[i].addr, got)
		}
		if got := src.Store.Marks(); !reflect.DeepEqual(got, before[i].marks) {
			t.Errorf("col-%d marks changed across the restart: %v → %v", i, before[i].marks, got)
		}
	}

	// Wave 2 retries the ack-lost batch first: a dedup ack from the
	// rebooted member, at the address the uploader already had. A device
	// whose connection died with the old process needs one retry to redial.
	r.wave("wave-2", 8, 2)
	if n := r.ups[0].Reroutes(); n != 0 {
		t.Fatalf("device 0 rerouted %d times; a restart changes no ownership", n)
	}
	// Wave 2 landed on the victim's reopened store, so it is read-write;
	// no member may have been swapped for a read-only adoption.
	r.checkExactlyOnce()
	for i := 0; i < r.fc.Len(); i++ {
		if !r.fc.Alive(i) {
			t.Errorf("col-%d is no longer alive after a restart", i)
		}
	}
	if err := r.fc.Fail(victim); err != nil {
		t.Fatalf("a restarted member must still be failable: %v", err)
	}
}

// failToHeir fails the owner of device 0, which holds the ack-lost batch,
// and returns the survivor that inherited the device — after checking
// that the heir's own checkpoint file already holds the inherited mark:
// Fail must not expose the ring change before the mark is on disk.
func (r *fleetRig) failToHeir() int {
	r.t.Helper()
	if err := r.fc.Fail(r.storeAckLost()); err != nil {
		r.t.Fatal(err)
	}
	heir := r.fc.OwnerIndex(0)
	raw, err := os.ReadFile(filepath.Join(r.dir, fmt.Sprintf("col-%d", heir), "checkpoint.json"))
	if err != nil {
		r.t.Fatal(err)
	}
	var cp struct {
		Marks map[uint64]uint64 `json:"marks"`
	}
	if err := json.Unmarshal(raw, &cp); err != nil {
		r.t.Fatal(err)
	}
	if cp.Marks[0] != 2 {
		r.t.Fatalf("col-%d's checkpoint marks device 0 at seq %d after the takeover, want 2", heir, cp.Marks[0])
	}
	return heir
}

// TestTakeoverMarksSurviveSurvivorRestart: a mark inherited at a takeover
// appears in no frame of the heir's store, so it must come back from the
// heir's checkpoint when the heir is itself SIGKILLed and rebooted — or
// the retry of the batch the first victim stored without acking is stored
// a second time.
func TestTakeoverMarksSurviveSurvivorRestart(t *testing.T) {
	r := newFleetRig(t, 8)
	r.wave("wave-1", 8, 1)
	if err := r.fc.Restart(r.failToHeir()); err != nil {
		t.Fatal(err)
	}
	r.wave("wave-2", 8, 2)
	r.checkExactlyOnce()
}

// TestTakeoverMarksSurviveSecondFailover: when the heir fails in turn, the
// marks it inherited pass on to the next heir with its own — takeover is
// transitive.
func TestTakeoverMarksSurviveSecondFailover(t *testing.T) {
	r := newFleetRig(t, 8)
	r.wave("wave-1", 8, 1)
	if err := r.fc.Fail(r.failToHeir()); err != nil {
		t.Fatal(err)
	}
	r.wave("wave-2", 8, 1)
	r.checkExactlyOnce()
}

// TestFleetRefusesLastCollector: the harness will not kill the only
// live member.
func TestFleetRefusesLastCollector(t *testing.T) {
	ds := trace.NewDataset()
	fc, err := StartFleet(2, ds, FleetOptions{Seed: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if err := fc.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := fc.Fail(0); err == nil {
		t.Fatal("double Fail succeeded")
	}
	if err := fc.Fail(1); err == nil {
		t.Fatal("failing the last live collector succeeded")
	}
}
