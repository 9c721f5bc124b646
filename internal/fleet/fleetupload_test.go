package fleet

import (
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/trace/ring"
)

// TestUploadRouterAcrossCollectorFleet points a Scenario at a
// 3-collector fleet through Scenario.UploadRouter: every shard uploader
// resolves its target off the consistent-hash ring, the shared dataset
// ends up with exactly the recorded events, and the durable union across
// the members' segment stores carries the same multiset.
func TestUploadRouterAcrossCollectorFleet(t *testing.T) {
	direct := runFleet(t, baseScenario(300))

	ds := trace.NewDataset()
	fc, err := ring.StartFleet(3, ds, ring.FleetOptions{
		Seed:  42,
		Dir:   t.TempDir(),
		Store: trace.SegStoreOptions{SegmentSize: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	s := baseScenario(300)
	s.UploadRouter = fc.Router()
	res := runFleet(t, s)

	if ds.Len() != direct.Dataset.Len() {
		t.Errorf("fleet upload delivered %d events, direct run produced %d", ds.Len(), direct.Dataset.Len())
	}
	if ds.Len() != res.Monitor.Recorded {
		t.Errorf("dataset holds %d events, shards recorded %d", ds.Len(), res.Monitor.Recorded)
	}
	if ds.MultisetDigest() != res.RecordedDigest {
		t.Errorf("dataset digest %s != recorded digest %s", ds.MultisetDigest(), res.RecordedDigest)
	}

	// The ring must actually spread the shard uploaders: after sealing,
	// more than one member's store holds events.
	if err := fc.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := fc.CloseStores(); err != nil {
		t.Fatal(err)
	}
	var stored trace.Digest
	storedEvents, nonEmpty := 0, 0
	for _, src := range fc.Sources() {
		events := 0
		for _, info := range src.Store.Segments() {
			err := src.Store.ReadSegment(info.ID, func(b *trace.Batch) error {
				for i := range b.Events {
					stored.Add(trace.EventDigest(&b.Events[i]))
				}
				events += len(b.Events)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if events > 0 {
			nonEmpty++
		}
		storedEvents += events
	}
	if nonEmpty < 2 {
		t.Errorf("only %d of 3 collectors stored events — the router did not spread the shards", nonEmpty)
	}
	if storedEvents != res.Monitor.Recorded || stored != res.RecordedDigest {
		t.Errorf("segment union: %d events digest %s, recorded %d digest %s",
			storedEvents, stored, res.Monitor.Recorded, res.RecordedDigest)
	}
}
