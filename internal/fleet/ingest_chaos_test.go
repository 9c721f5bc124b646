package fleet

import (
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/trace"
	"repro/internal/trace/ring"
)

// ingestChaosCampaign stresses the upload path only: no radio-layer rules,
// so the simulated event stream is identical to a calm run and any dataset
// discrepancy is the transport's fault.
func ingestChaosCampaign() *faultinject.Campaign {
	return &faultinject.Campaign{
		Name: "ingest-chaos",
		Rules: []faultinject.Rule{
			// ack-loss first: it is the only class that stores the batch
			// and then loses the ack, so it must actually fire for the
			// dedup side of the invariant to be exercised.
			{Name: "lost-acks", Class: faultinject.ClassAckLoss, Intensity: 0.6},
			{Name: "outage", Class: faultinject.ClassCollectorOutage, Intensity: 0.35},
			{Name: "flaky", Class: faultinject.ClassLinkFlaky, Intensity: 0.35},
		},
	}
}

// TestNetworkChaosExactlyOnceAcrossWorkers is invariant I4 end to end:
// under injected dial failures, lost acks, and a flaky link, the collector
// dataset's event multiset must equal the union of what the devices
// recorded — nothing lost, nothing duplicated — and must be identical for
// any worker count.
func TestNetworkChaosExactlyOnceAcrossWorkers(t *testing.T) {
	type outcome struct {
		uploaded trace.Digest
		events   int
	}
	var outcomes []outcome
	for _, workers := range []int{1, 4} {
		ds := trace.NewDataset()
		col, err := trace.NewCollector("127.0.0.1:0", ds)
		if err != nil {
			t.Fatal(err)
		}
		s := Scenario{Seed: 77, NumDevices: 150, Workers: workers}
		s.UploadAddr = col.Addr()
		s.Faults = ingestChaosCampaign()
		res, err := Run(s)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		col.Drain(2 * time.Second)

		if res.RecordedEvents == 0 {
			t.Fatalf("workers=%d: no events recorded", workers)
		}
		if res.Faults == nil || res.Faults.TotalInjected() == 0 {
			t.Fatalf("workers=%d: campaign injected no transport faults — the invariant was not stressed", workers)
		}
		if n := res.Faults.Unresolved(); n != 0 {
			t.Errorf("workers=%d: %d unresolved transport fault episodes\n%s", workers, n, res.Faults)
		}
		up := ds.MultisetDigest()
		if up != res.RecordedDigest {
			t.Errorf("workers=%d: collector multiset %s != device-recorded multiset %s",
				workers, up, res.RecordedDigest)
		}
		if int64(ds.Len()) != res.RecordedEvents {
			t.Errorf("workers=%d: collector holds %d events, devices recorded %d",
				workers, ds.Len(), res.RecordedEvents)
		}
		if col.DedupHits() == 0 {
			t.Errorf("workers=%d: no dedup hits — retries never replayed a stored batch, so the campaign was too gentle", workers)
		}
		outcomes = append(outcomes, outcome{uploaded: up, events: ds.Len()})
	}
	if outcomes[0].uploaded != outcomes[1].uploaded {
		t.Errorf("dataset multiset differs across worker counts: %s vs %s",
			outcomes[0].uploaded, outcomes[1].uploaded)
	}
	if outcomes[0].events != outcomes[1].events {
		t.Errorf("dataset size differs across worker counts: %d vs %d",
			outcomes[0].events, outcomes[1].events)
	}
}

// TestKillRestartExactlyOnceAcrossWorkers is invariant I4 across a
// collector crash: a segment-store-backed collector — a fleet of one —
// is SIGKILLed mid-campaign (no drain, no seal, no final checkpoint),
// rebooted from its store on the same address, and the devices'
// backoff/WAL retries carry the rest of the fleet across the outage. The
// final dataset must still equal the device-recorded multiset exactly,
// for every worker count.
func TestKillRestartExactlyOnceAcrossWorkers(t *testing.T) {
	var digests []trace.Digest
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		ds := trace.NewDataset()
		fc, err := ring.StartFleet(1, ds, ring.FleetOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer fc.Close()

		// Kill once a few hundred events are durable, then reboot from
		// disk on the same address.
		restarted := make(chan error, 1)
		go func() {
			for ds.Len() < 300 {
				time.Sleep(time.Millisecond)
			}
			restarted <- fc.Restart(0)
		}()

		s := Scenario{Seed: 77, NumDevices: 150, Workers: workers}
		s.UploadAddr = fc.Addr(0)
		s.Faults = ingestChaosCampaign()
		res, err := Run(s)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := <-restarted; err != nil {
			t.Fatalf("workers=%d: restart: %v", workers, err)
		}
		if err := fc.Drain(2 * time.Second); err != nil {
			t.Fatalf("workers=%d: drain: %v", workers, err)
		}
		if err := fc.CloseStores(); err != nil {
			t.Fatalf("workers=%d: store close: %v", workers, err)
		}

		if res.RecordedEvents == 0 {
			t.Fatalf("workers=%d: no events recorded", workers)
		}
		up := ds.MultisetDigest()
		if up != res.RecordedDigest || int64(ds.Len()) != res.RecordedEvents {
			t.Errorf("workers=%d: collector holds %d events digest %s, devices recorded %d digest %s",
				workers, ds.Len(), up, res.RecordedEvents, res.RecordedDigest)
		}

		// A fresh replay of the closed store must reproduce the dataset:
		// the crash left nothing only-in-memory.
		replayed := trace.NewDataset()
		st, err := trace.OpenSegStore(fc.Sources()[0].Store.Dir(), trace.SegStoreOptions{}, trace.ReplayInto(replayed))
		if err != nil {
			t.Fatal(err)
		}
		if replayed.MultisetDigest() != up {
			t.Errorf("workers=%d: replayed multiset %s != stored %s", workers, replayed.MultisetDigest(), up)
		}
		st.Close()
		digests = append(digests, up)
	}
	if digests[0] != digests[1] {
		t.Errorf("dataset multiset differs across worker counts: %s vs %s", digests[0], digests[1])
	}
}

// TestUploadSpillKeepsAllEvents forces every shard's backlog through the
// on-disk WAL (tiny in-memory limit, WiFi off for the whole run) and
// asserts the collector still receives the exact recorded multiset.
func TestUploadSpillKeepsAllEvents(t *testing.T) {
	ds := trace.NewDataset()
	col, err := trace.NewCollector("127.0.0.1:0", ds)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	s := Scenario{Seed: 9, NumDevices: 120, Workers: 3}
	s.UploadAddr = col.Addr()
	s.UploadBufferLimit = 50
	s.UploadSpillDir = t.TempDir()
	res := runFleet(t, s)
	col.Drain(2 * time.Second)

	if ds.MultisetDigest() != res.RecordedDigest {
		t.Errorf("collector multiset %s != recorded %s", ds.MultisetDigest(), res.RecordedDigest)
	}
	if int64(ds.Len()) != res.RecordedEvents {
		t.Errorf("collector holds %d events, devices recorded %d", ds.Len(), res.RecordedEvents)
	}
}
