package node

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/internal/trace/ring"
)

// segmentFiles reads every segment file of dir, by name.
func segmentFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(name)] = string(raw)
	}
	return files
}

// TestFleetRebootWithLiveEngine boots a three-collector node on the
// directories an earlier node left behind: the replay must restore the
// multiset the earlier node stored, and right after boot the live figures
// and claims must equal a batch pass over the replayed dataset (I5 at
// boot), and the live window must hold what an engine that ingests the
// three stores one after another holds.
func TestFleetRebootWithLiveEngine(t *testing.T) {
	dir := t.TempDir()
	first, err := Start(Options{Fleet: ring.FleetOptions{Dir: dir, Seed: 7}, Collectors: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(fleet.Scenario{
		Seed: 7, NumDevices: 200, Workers: 4, Window: 30 * 24 * time.Hour,
		UploadRouter: first.Fleet().Router(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	stored, digest := first.Dataset().Len(), first.Dataset().MultisetDigest()
	if stored == 0 || stored != res.Monitor.Recorded || digest != res.RecordedDigest {
		t.Fatalf("first node stored %d events %s, the devices recorded %d %s",
			stored, digest, res.Monitor.Recorded, res.RecordedDigest)
	}
	// The reboot must gather the multiset from several member directories.
	holding := 0
	for _, member := range []string{"col-0", "col-1", "col-2"} {
		if len(segmentFiles(t, filepath.Join(dir, member))) > 0 {
			holding++
		}
	}
	if holding < 2 {
		t.Fatalf("%d of 3 member directories hold segments, want the upload spread over at least 2", holding)
	}

	// The reference engine ingests the three stores one after another.
	ref := analysis.NewStreaming(analysis.Input{Dataset: trace.NewDataset(), Context: res.Context}, analysis.StreamingOptions{})
	defer ref.Close()
	for _, member := range []string{"col-0", "col-1", "col-2"} {
		st, err := trace.OpenSegStore(filepath.Join(dir, member), trace.SegStoreOptions{ReadOnly: true},
			func(b *trace.Batch) { ref.Ingest(b.Events) })
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	if err := ref.WaitIdle(SettleTimeout); err != nil {
		t.Fatal(err)
	}

	second, err := Start(Options{Fleet: ring.FleetOptions{Dir: dir, Seed: 7}, Collectors: 3, Context: res.Context})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Shutdown(0)
	ds := second.Dataset()
	if ds.Len() != stored || ds.MultisetDigest() != digest {
		t.Fatalf("reboot replayed %d events %s, the first node stored %d %s",
			ds.Len(), ds.MultisetDigest(), stored, digest)
	}
	in := analysis.FromResult(res)
	in.Dataset = ds
	pass := analysis.NewPass(in)
	wantFigures, err := pass.FiguresJSON(core.Catalogue())
	if err != nil {
		t.Fatal(err)
	}
	wantClaims, err := pass.ClaimsJSON()
	if err != nil {
		t.Fatal(err)
	}
	eng := second.Engine()
	if got, err := eng.FiguresJSON(core.Catalogue()); err != nil || !bytes.Equal(got, wantFigures) {
		t.Errorf("live figures after reboot differ from the batch pass (%d vs %d bytes, %v)", len(got), len(wantFigures), err)
	}
	if got, err := eng.ClaimsJSON(); err != nil || !bytes.Equal(got, wantClaims) {
		t.Errorf("live claims after reboot differ from the batch pass (%d vs %d bytes, %v)", len(got), len(wantClaims), err)
	}
	if st := eng.Status(); st.Events != int64(stored) || st.QueueEvents != 0 {
		t.Errorf("live status after reboot: %+v, want %d events, no lag", st, stored)
	}
	// The members replay at once, so how their events interleave, and with
	// it how many the window counts late, varies from boot to boot; which
	// events the window holds does not.
	got, want := eng.Window(), ref.Window()
	if want.Events == 0 {
		t.Fatal("the reference window holds no event")
	}
	got.LateDrops, want.LateDrops = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("window after a concurrent boot:\n%+v\nafter a member-by-member ingest:\n%+v", got, want)
	}
}

// TestFleetOfOneServesARunDirectory boots a node of one on a directory
// fleet.SaveResult wrote, as cellsim -o does: the replay holds the run, and
// a shutdown with no upload leaves every segment file byte for byte as it
// was.
func TestFleetOfOneServesARunDirectory(t *testing.T) {
	res, err := fleet.Run(fleet.Scenario{Seed: 11, NumDevices: 150, Window: 30 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	if err := fleet.SaveResult(dir, res); err != nil {
		t.Fatal(err)
	}
	before := segmentFiles(t, dir)
	if len(before) == 0 {
		t.Fatal("the run wrote no segment")
	}

	n, err := Start(Options{Fleet: ring.FleetOptions{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.Dataset().MultisetDigest(), res.Dataset.MultisetDigest(); got != want {
		t.Errorf("boot replayed digest %s, the run's is %s", got, want)
	}
	if err := n.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if after := segmentFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("a boot and clean shutdown with no upload changed the run's segment files: %d files before, %d after", len(before), len(after))
	}
}

// framePath is the ingest path one admitted frame takes, wired as bench/
// and cmd/collector wire it: an uploader sends to a node of one, whose
// store-backed collector hands every admitted batch to the engine's Ingest.
type framePath struct {
	node *Node
	ups  []*trace.Uploader
}

// startFramePath boots an empty node of one in a fresh directory and points
// one uploader per device 1 … uploaders at it; they flush only when told to.
func startFramePath(tb testing.TB, uploaders int) *framePath {
	tb.Helper()
	n, err := Start(Options{Fleet: ring.FleetOptions{Dir: tb.TempDir()}})
	if err != nil {
		tb.Fatal(err)
	}
	p := &framePath{node: n}
	for i := 1; i <= uploaders; i++ {
		up := trace.NewUploader(n.Addr(), uint64(i))
		up.SetWiFi(true)
		p.ups = append(p.ups, up)
	}
	return p
}

// send uploads events as one frame from uploader i and waits for its ack.
func (p *framePath) send(tb testing.TB, i int, events []failure.Event) {
	up := p.ups[i%len(p.ups)]
	for k := range events {
		up.Record(events[k])
	}
	if err := up.Flush(); err != nil {
		tb.Fatal(err)
	}
}

// stop closes the uploaders and shuts the node down.
func (p *framePath) stop(tb testing.TB) {
	for _, up := range p.ups {
		up.Close()
	}
	if err := p.node.Shutdown(time.Second); err != nil {
		tb.Fatal(err)
	}
}

// TestAdmittedFrameAllocatesNothing pins the steady-state cost of a
// phone's upload end to end: once warm, a 16-event frame recorded, sealed,
// encoded and sent by its uploader, then read, decoded into the
// connection's dataset block, stored, published and handed to the live
// engine by the collector, and acked, allocates nothing. The dataset cuts
// a new 1024-event block every 64 such frames, which AllocsPerRun's
// integer average rounds away; before blocks this read 1 (the decoded
// events).
func TestAdmittedFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled encoders at random")
	}
	p := startFramePath(t, 1)
	defer p.stop(t)
	events := make([]failure.Event, 16)
	for i := range events {
		events[i] = failure.Event{
			DeviceID: 1, Kind: failure.Kind(i % failure.NumKinds), ModelID: 3, AndroidVersion: 10,
			Start: time.Duration(i) * time.Minute, Duration: time.Duration(i+1) * time.Second,
		}
	}
	for i := 0; i < 50; i++ {
		p.send(t, 0, events)
	}
	if got := testing.AllocsPerRun(400, func() { p.send(t, 0, events) }); got != 0 {
		t.Errorf("an admitted 16-event frame allocates %v objects end to end, want 0", got)
	}
	if err := p.node.Engine().WaitIdle(SettleTimeout); err != nil {
		t.Fatal(err)
	}
	if want := (50 + 401) * len(events); p.node.Dataset().Len() != want || p.node.Engine().Status().Events != int64(want) {
		t.Errorf("dataset holds %d events, the engine applied %d; want %d in both",
			p.node.Dataset().Len(), p.node.Engine().Status().Events, want)
	}
}
