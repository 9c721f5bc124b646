package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trace/ring"
)

// runChaos executes `cellcheck chaos`: a calm baseline run, the same
// scenario under a fault campaign, and the recovery invariants that make
// fault injection trustworthy as a regression harness. It returns the
// checks; an error means the harness itself could not run.
//
// There is one upload harness (runUpload). Every upload-mode run —
// -network, -restart, -fleet N, -failover, or a campaign with network
// rules — sends the fleet's events through -fleet N store-backed
// collectors behind a consistent-hash ring (default 1: a ring of one owns
// every device), serves the live and merged segment APIs beside the
// ingest, and may kill one collector mid-campaign: -restart reboots it
// from its store on the same address, -failover (N >= 2) hands its
// devices to the survivors. The two kill actions are mutually exclusive;
// every other combination of the four flags is legal.
//
//	I1  every injected outage resolves — per rule, at least one episode ran
//	    (for episode-bearing classes) and injected == recovered.
//	I2  no device wedges outside the Figure-1 state machine — the data
//	    connection of every device ends in Inactive or Active and no setup
//	    episode is left in flight.
//	I3  the failure-class mix shifts in the expected direction — for each
//	    fault class in the campaign, the faulted run records at least as
//	    many events of the class's failure kind as the calm baseline.
//	I4  ingestion is exactly-once (upload mode): with every event routed
//	    through in-process collectors under injected dial failures, lost
//	    acks, and flaky links, the collected dataset's event multiset
//	    equals the union of what the devices recorded — nothing lost,
//	    nothing duplicated — and is byte-identical across worker counts.
//	I5  streaming equals batch (upload mode): a live analysis engine fed
//	    from the collectors' admit path serves /api/live/figures while the
//	    faulted fleet uploads, and after the drain the live figures and
//	    claims JSON are byte-identical to a batch pass over the collected
//	    dataset — and identical across worker counts.
//	I6  crash durability (upload mode): the collectors' segment stores
//	    answer queries while ingest continues, and after the drain the
//	    segments downloaded over HTTP reproduce the stored multiset and
//	    the batch figures byte-for-byte — disk truth, re-derived. With
//	    -restart a collector is SIGKILLed mid-campaign and rebooted from
//	    disk; the devices' backoff/WAL retries carry everything across the
//	    outage, so I4/I5 and the segment checks must still hold.
//	I7  fleet exactly-once (-fleet N >= 2): the stored union across all
//	    members matches a single-collector run of the same scenario
//	    byte-for-byte. With -failover one collector is SIGKILLed
//	    mid-campaign; its devices reroute to the survivors, whose dedup
//	    gates are seeded from the dead member's replayed marks, and its
//	    segments stay served through a read-only adoption of its
//	    directory — the union must still equal the recorded multiset even
//	    though the collector a device talks to changed mid-run.
func runChaos(args []string, out io.Writer) ([]chaosCheck, error) {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	var (
		devices  = fs.Int("devices", 2000, "fleet size")
		seed     = fs.Int64("seed", 7, "simulation seed")
		workers  = fs.Int("workers", 8, "worker shards")
		months   = fs.Float64("months", 4, "measurement window in months")
		faults   = fs.String("faults", "", "JSON fault-campaign file (default: the bundled BS-blackout campaign, or the bundled network campaign in upload mode)")
		network  = fs.Bool("network", false, "upload events through in-process store-backed collectors under transport faults and check invariants I4-I6 (upload mode)")
		restart  = fs.Bool("restart", false, "SIGKILL one collector mid-campaign, reboot it from its store on the same address, and check exactly-once across the restart (implies upload mode)")
		fleetN   = fs.Int("fleet", 0, "route uploads across N collectors behind a consistent-hash ring and check invariant I7 for N >= 2 (implies upload mode; 0 and 1: one collector)")
		failover = fs.Bool("failover", false, "SIGKILL one collector mid-campaign and check exactly-once across the survivors' takeover (needs -fleet N >= 2)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, fmt.Errorf("%w: %w", errUsage, err)
	}
	plan := &chaosPlan{collectors: max(1, *fleetN)}
	switch {
	case *restart && *failover:
		return nil, errors.New("-restart and -failover are two actions of the one kill monitor: pick one")
	case *failover && plan.collectors < 2:
		return nil, errors.New("-failover needs survivors to take over: use -fleet N with N >= 2")
	case *restart:
		plan.kill = killRestart
	case *failover:
		plan.kill = killFailover
	}
	uploadFlags := *network || *restart || *failover || *fleetN > 0

	plan.scenario = fleet.Scenario{
		Seed:       *seed,
		NumDevices: *devices,
		Workers:    *workers,
		Window:     time.Duration(*months * 30 * 24 * float64(time.Hour)),
	}
	switch {
	case *faults != "":
		var err error
		if plan.campaign, err = faultinject.LoadCampaign(*faults); err != nil {
			return nil, err
		}
	case uploadFlags:
		plan.campaign = faultinject.DefaultNetworkCampaign(plan.scenario.Window)
	default:
		plan.campaign = faultinject.DefaultBlackoutCampaign(plan.scenario.Window)
	}

	fmt.Fprintf(out, "chaos: campaign %q over %d devices, %.1f months, seed %d\n",
		plan.campaign.Name, *devices, plan.scenario.Window.Hours()/24/30, *seed)

	baseline, err := fleet.Run(plan.scenario)
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	// Kill once the campaign is well underway: a quarter of the baseline's
	// event count admitted.
	plan.killAfter = max(1, baseline.Dataset.Len()/4)

	faulted := plan.scenario
	faulted.Faults = plan.campaign
	if !uploadFlags && !plan.campaign.HasNetworkRules() {
		res, err := fleet.Run(faulted)
		if err != nil {
			return nil, fmt.Errorf("faulted run: %w", err)
		}
		fmt.Fprintf(out, "%s\n", res.Faults)
		return chaosInvariants(plan.campaign, baseline, res), nil
	}

	res, live, err := plan.runUpload(*workers, out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", res.Faults)
	res1, live1 := res, live
	if *workers != 1 {
		if res1, live1, err = plan.runUpload(1, out); err != nil {
			return nil, err
		}
	}
	checks := chaosInvariants(plan.campaign, baseline, res)
	checks = append(checks, ingestInvariants(res, res1)...)
	checks = append(checks, streamingInvariants(live, live1)...)
	checks = append(checks, segmentInvariants(live, live1)...)
	if plan.kill != "" {
		checks = append(checks, killInvariants(plan.kill, live, live1)...)
	}
	if plan.collectors > 1 {
		// The oracle: the same scenario and campaign through one plain,
		// store-less collector. The fleet's union must land on exactly this
		// dataset digest.
		refDs := trace.NewDataset()
		refCol, err := trace.NewCollector("127.0.0.1:0", refDs)
		if err != nil {
			return nil, fmt.Errorf("reference collector: %w", err)
		}
		defer refCol.Close()
		faulted.UploadAddr = refCol.Addr()
		if _, err := fleet.Run(faulted); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		refCol.Drain(5 * time.Second)
		fmt.Fprintf(out, "reference (single collector): %d events, digest %s\n", refDs.Len(), refDs.MultisetDigest())
		checks = append(checks, chaosCheck{
			id:   "I7/single-collector-equal",
			text: "the fleet's stored union equals a single-collector run of the same scenario",
			pass: refDs.Len() == live.storedEvents && refDs.MultisetDigest() == live.storedDigest,
			detail: fmt.Sprintf("fleet=%d events %s; single=%d events %s",
				live.storedEvents, live.storedDigest, refDs.Len(), refDs.MultisetDigest()),
		})
	}
	return checks, nil
}

type chaosCheck struct {
	id     string
	text   string
	pass   bool
	detail string
}

// reportChecks writes one line per check and the verdict to out; it
// reports whether every invariant held.
func reportChecks(out io.Writer, checks []chaosCheck) bool {
	failures := 0
	for _, c := range checks {
		status := "PASS"
		if !c.pass {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(out, "[%s] %-14s %s — %s\n", status, c.id, c.text, c.detail)
	}
	if failures > 0 {
		fmt.Fprintf(out, "chaos: %d/%d invariants failed\n", failures, len(checks))
		return false
	}
	fmt.Fprintf(out, "chaos: all %d invariants hold\n", len(checks))
	return true
}

// The kill monitor's two actions.
const (
	killRestart  = "restart"
	killFailover = "failover"
)

// chaosPlan is what every faulted upload run of one invocation shares.
type chaosPlan struct {
	scenario   fleet.Scenario
	campaign   *faultinject.Campaign
	collectors int
	kill       string // "", killRestart or killFailover
	killAfter  int    // fleet-wide admitted events before the kill may fire
}

// killReport is what the kill monitor did.
type killReport struct {
	victim int // member index
	at     int // events admitted fleet-wide when the monitor pulled the trigger; 0: never fired
	err    error
}

// liveRun captures one faulted upload run's observations: how many
// mid-run queries the live and segment endpoints answered, the post-drain
// streaming bytes and the batch bytes they must equal, the segment-store
// round trip, and the kill.
type liveRun struct {
	queries      int
	segQueries   int // mid-run /api/segments responses while ingest ran
	resynced     bool
	status       analysis.StreamingStatus
	figures      []byte
	claims       []byte
	batchFigures []byte
	batchClaims  []byte

	storedEvents int
	storedDigest trace.Digest
	segEvents    int // events rebuilt from downloaded segment frames
	segDigest    trace.Digest
	segFigures   []byte

	kill      killReport
	reroutes  float64 // delta of trace_uploader_reroutes_total over the run
	takeovers float64 // delta of trace_collector_takeover_devices over the run
}

// runUpload executes the campaign with every event routed through a fresh
// in-process ingest tier, so transport faults have a real TCP path to
// break: plan.collectors store-backed collectors behind a consistent-hash
// ring (Scenario.UploadRouter), all admitting into one shared dataset —
// exactly what a production deployment would have persisted, and the
// result's Dataset — and one live streaming engine, whose endpoints and
// the merged segment API are queried mid-run. The ring owns how the tier
// is assembled, killed, rebooted and drained; this function only decides
// when.
func (p *chaosPlan) runUpload(workers int, out io.Writer) (*fleet.Result, *liveRun, error) {
	ds := trace.NewDataset()
	eng := analysis.NewStreaming(analysis.LiveInput(ds), analysis.StreamingOptions{})
	defer eng.Close()

	storeDir, err := os.MkdirTemp("", "cellcheck-chaos-*")
	if err != nil {
		return nil, nil, fmt.Errorf("store dir: %w", err)
	}
	defer os.RemoveAll(storeDir)
	onAdmit, gate := eng.Ingest, (*killGate)(nil)
	if p.kill != "" {
		gate = newKillGate()
		onAdmit = func(events []failure.Event) {
			eng.Ingest(events)
			gate.admitted()
		}
	}
	fc, err := ring.StartFleet(p.collectors, ds, ring.FleetOptions{
		Seed:      p.scenario.Seed,
		Dir:       storeDir,
		Collector: trace.CollectorOptions{OnAdmit: onAdmit},
	})
	if err != nil {
		return nil, nil, err
	}
	defer fc.Close()

	mux := http.NewServeMux()
	analysis.NewLiveAPI(eng, core.Catalogue()).Routes(mux)
	trace.NewMergeAPI(fc.Sources).Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	live := &liveRun{}
	reroutes0 := chaosMetric("trace_uploader_reroutes_total")
	takeovers0 := chaosMetric("trace_collector_takeover_devices")

	// Beside the run: the kill monitor, and a poller proving the live and
	// segment endpoints answer while uploads are in flight.
	stop := make(chan struct{})
	monitor := make(chan killReport, 1)
	go func() { monitor <- p.killWhenUnderway(fc, ds, gate, stop) }()
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				liveFetch(srv, "/api/live/figures")
				liveFetch(srv, "/api/live/status")
				live.queries += 2
				if liveFetch(srv, "/api/segments") != nil {
					live.segQueries++
				}
			}
		}
	}()

	faulted := p.scenario
	faulted.Workers = workers
	faulted.Faults = p.campaign
	faulted.UploadRouter = fc.Router()
	res, err := fleet.Run(faulted)
	close(stop)
	<-polled
	live.kill = <-monitor
	if err != nil {
		return nil, nil, fmt.Errorf("faulted run (workers=%d): %w", workers, err)
	}
	if live.kill.err != nil {
		return nil, nil, fmt.Errorf("%s (workers=%d): %w", p.kill, workers, live.kill.err)
	}
	if live.kill.at > 0 {
		fmt.Fprintf(out, "ingest (workers=%d): %s — col-%d killed with %d events admitted\n", workers, p.kill, live.kill.victim, live.kill.at)
	}

	if err := fc.Drain(5 * time.Second); err != nil {
		return nil, nil, fmt.Errorf("drain: %w", err)
	}
	res.Dataset = ds
	live.reroutes = chaosMetric("trace_uploader_reroutes_total") - reroutes0
	live.takeovers = chaosMetric("trace_collector_takeover_devices") - takeovers0
	fmt.Fprintf(out, "ingest (workers=%d): %d events across %d collectors, %d dedup hits, %d redirects, digest %s\n",
		workers, ds.Len(), p.collectors, fc.DedupHits(), fc.Redirects(), ds.MultisetDigest())

	if err := captureStreaming(live, eng, srv, res); err != nil {
		return nil, nil, err
	}
	// Seal every live store, then rebuild the dataset from the merged
	// segment API — the union of all members, a failed one included via
	// its adopted read-only store: the durable bytes must reproduce the
	// stored multiset and the batch figures bit-for-bit.
	if err := fc.CloseStores(); err != nil {
		return nil, nil, fmt.Errorf("store close: %w", err)
	}
	if err := captureSegments(live, srv, res); err != nil {
		return nil, nil, err
	}
	return res, live, nil
}

// killWhenUnderway is the one kill monitor. The victim is the ring owner
// of device 0 — the uploader of shard 0 in every worker arm. It dies once
// plan.killAfter events have been admitted fleet-wide and its own store
// holds a device mark: the shared dataset reaching the target says
// nothing about this member, and without a mark a restart has nothing to
// dedup against and a takeover nothing to seed the survivors with. A run
// that ends just as the condition turns true is still killed, so whether
// the monitor fired never depends on the poll phase. The admit path, not a
// poll, tells the monitor the condition holds, and the gate holds every
// admit from then until the trigger is pulled: however late the monitor
// is scheduled, the kill lands where the condition turned true, not after
// the run's last batch.
func (p *chaosPlan) killWhenUnderway(fc *ring.FleetCollector, ds *trace.Dataset, gate *killGate, stop <-chan struct{}) killReport {
	if p.kill == "" {
		return killReport{}
	}
	k := killReport{victim: fc.OwnerIndex(0)}
	victimStore := fc.Sources()[k.victim].Store
	underway := func() bool { return ds.Len() >= p.killAfter && len(victimStore.Marks()) > 0 }
	gate.arm(underway)
	select {
	case <-gate.ready:
	case <-stop:
		if !underway() {
			close(gate.taken)
			return k
		}
	}
	k.at = ds.Len()
	// Release the held admits before the kill: the victim's Kill waits for
	// its connections, and one of them may be held here.
	close(gate.taken)
	if p.kill == killRestart {
		k.err = fc.Restart(k.victim)
	} else {
		k.err = fc.Fail(k.victim)
	}
	return k
}

// killGate is the kill monitor's hook on the admit path. Once armed, every
// admitted batch checks the kill condition; the first to find it true
// wakes the monitor, and that batch and every later one wait until the
// monitor has pulled the trigger.
type killGate struct {
	mu       sync.Mutex
	underway func() bool // nil until the monitor arms the gate
	wake     sync.Once
	ready    chan struct{} // closed when an admit first finds the condition true
	taken    chan struct{} // closed by the monitor once it fired or gave up
}

func newKillGate() *killGate {
	return &killGate{ready: make(chan struct{}), taken: make(chan struct{})}
}

func (g *killGate) arm(underway func() bool) {
	g.mu.Lock()
	g.underway = underway
	g.mu.Unlock()
}

// admitted runs after each admitted batch, on the collector's admit path.
func (g *killGate) admitted() {
	select {
	case <-g.taken:
		return
	default:
	}
	g.mu.Lock()
	underway := g.underway
	g.mu.Unlock()
	if underway == nil || !underway() {
		return
	}
	g.wake.Do(func() { close(g.ready) })
	<-g.taken
}

// captureStreaming settles the live engine with the run's final context
// and captures both sides of the streaming=batch comparison (I5).
func captureStreaming(live *liveRun, eng *analysis.Streaming, srv *httptest.Server, res *fleet.Result) error {
	if err := eng.WaitIdle(10 * time.Second); err != nil {
		return fmt.Errorf("live engine: %w", err)
	}
	in := analysis.FromResult(res)
	live.resynced = eng.Sync(in)
	live.status = eng.Status()
	live.figures = liveFetch(srv, "/api/live/figures")
	live.claims = liveFetch(srv, "/api/live/claims")
	pass := analysis.NewPass(in)
	var err error
	if live.batchFigures, err = pass.FiguresJSON(core.Catalogue()); err != nil {
		return fmt.Errorf("batch figures: %w", err)
	}
	if live.batchClaims, err = pass.ClaimsJSON(); err != nil {
		return fmt.Errorf("batch claims: %w", err)
	}
	return nil
}

// captureSegments downloads every segment the merged /api/segments
// lists, rebuilds a dataset from the raw frames, and captures both sides
// of the segments=stored comparison (I6) plus the figures rendered from
// the rebuilt dataset.
func captureSegments(live *liveRun, srv *httptest.Server, res *fleet.Result) error {
	live.storedEvents = res.Dataset.Len()
	live.storedDigest = res.Dataset.MultisetDigest()
	var idx []trace.MergedSegmentInfo
	if err := json.Unmarshal(liveFetch(srv, "/api/segments"), &idx); err != nil {
		return fmt.Errorf("segment index: %w", err)
	}
	segDs := trace.NewDataset()
	replay := trace.ReplayInto(segDs)
	for _, info := range idx {
		query := fmt.Sprintf("collector=%s&id=%d", info.Collector, info.ID)
		br := bufio.NewReader(bytes.NewReader(liveFetch(srv, "/api/segments/data?"+query)))
		for {
			b, _, _, err := trace.ReadBatchAny(br)
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("segment %s decode: %w", query, err)
			}
			replay(b)
		}
	}
	live.segEvents = segDs.Len()
	live.segDigest = segDs.MultisetDigest()
	segIn := analysis.FromResult(res)
	segIn.Dataset = segDs
	var err error
	if live.segFigures, err = analysis.NewPass(segIn).FiguresJSON(core.Catalogue()); err != nil {
		return fmt.Errorf("segment figures: %w", err)
	}
	return nil
}

// chaosMetric reads one counter from the process-wide registry (0 if it
// has not been registered yet).
func chaosMetric(name string) float64 {
	v, _ := metrics.Default().Value(name)
	return v
}

// liveFetch GETs one live endpoint, returning the body (nil on error —
// mid-run probes are best-effort; the post-drain fetch is checked by I5).
func liveFetch(srv *httptest.Server, path string) []byte {
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	return b
}

// streamingInvariants is invariant I5: live figures served off the admit
// path during the chaos run must, post-drain, be byte-identical to the
// batch renderer over the collected dataset, and identical across worker
// counts; the mid-run queries prove the endpoints answered while uploads
// were in flight.
func streamingInvariants(live, live1 *liveRun) []chaosCheck {
	degraded := ""
	if live.status.Shed > 0 || live.resynced {
		degraded = fmt.Sprintf(" (shed=%d resynced=%v)", live.status.Shed, live.resynced)
	}
	return []chaosCheck{
		{
			id:   "I5/streaming-batch",
			text: "post-drain live figures and claims equal the batch renderer byte-for-byte",
			pass: len(live.figures) > 0 && bytes.Equal(live.figures, live.batchFigures) &&
				bytes.Equal(live.claims, live.batchClaims),
			detail: fmt.Sprintf("live=%dB batch=%dB claims live=%dB batch=%dB events=%d%s",
				len(live.figures), len(live.batchFigures), len(live.claims), len(live.batchClaims),
				live.status.Events, degraded),
		},
		{
			id:     "I5/live-served",
			text:   "live endpoints answered while the fleet was still uploading",
			pass:   live.queries > 0,
			detail: fmt.Sprintf("mid-run queries=%d", live.queries),
		},
		{
			id:   "I5/worker-independence",
			text: "live figures are byte-identical across worker counts",
			pass: bytes.Equal(live.figures, live1.figures) && bytes.Equal(live.claims, live1.claims),
			detail: fmt.Sprintf("workers=N: %dB; workers=1: %dB",
				len(live.figures), len(live1.figures)),
		},
	}
}

// segmentInvariants is the disk-truth half of invariant I6, checked on
// every upload run: the merged segment API must have answered queries
// while ingest was live, and the dataset rebuilt from the downloaded
// segment frames — every member's, a failed one's included — must
// reproduce the stored multiset and the batch figures byte-for-byte. The
// shared dataset and the live engine survive a member's in-process
// restart or failure, so this is what shows that nothing acked was
// only-in-memory.
func segmentInvariants(live, live1 *liveRun) []chaosCheck {
	return []chaosCheck{
		{
			id:     "I6/segments-live",
			text:   "the merged segment index answered queries while ingest continued",
			pass:   live.segQueries > 0 && live1.segQueries > 0,
			detail: fmt.Sprintf("mid-run segment queries: workers=N %d, workers=1 %d", live.segQueries, live1.segQueries),
		},
		{
			id:   "I6/segments-batch-equal",
			text: "segments downloaded over HTTP reproduce the stored multiset and batch figures",
			pass: live.segEvents == live.storedEvents && live.segDigest == live.storedDigest &&
				live1.segEvents == live1.storedEvents && live1.segDigest == live1.storedDigest &&
				len(live.segFigures) > 0 && bytes.Equal(live.segFigures, live.batchFigures) &&
				bytes.Equal(live1.segFigures, live1.batchFigures),
			detail: fmt.Sprintf("segments=%d events digest=%s stored=%d digest=%s figures=%dB",
				live.segEvents, live.segDigest, live.storedEvents, live.storedDigest, len(live.segFigures)),
		},
	}
}

// killInvariants checks that the kill was not vacuous. A shard uploader
// flushes once, at the end of its shard, so only a run with several
// shards can lose a collector mid-stream: in the workers=N arm the
// monitor must have pulled the trigger strictly before the last event was
// admitted. The workers=1 arm is the digest-identity arm — its one flush
// is admitted (though not necessarily acked) before the monitor can see
// it — and must merely have been killed. With -failover the takeover path must also have run:
// devices rerouted, survivors' dedup gates seeded, and the stored union
// identical across the worker arms.
func killInvariants(kill string, live, live1 *liveRun) []chaosCheck {
	id, text := "I6/restart-fired", "one collector was SIGKILLed mid-stream (workers=N) and rebooted from its store on the same address"
	if kill == killFailover {
		id, text = "I7/failover-fired", "one collector was SIGKILLed mid-stream (workers=N) and its devices handed to the survivors"
	}
	k, k1 := live.kill, live1.kill
	checks := []chaosCheck{{
		id:   id,
		text: text,
		pass: 0 < k.at && k.at < live.storedEvents && 0 < k1.at,
		detail: fmt.Sprintf("workers=N killed col-%d with %d of %d events admitted; workers=1 (one end-of-run flush) killed col-%d with %d of %d",
			k.victim, k.at, live.storedEvents, k1.victim, k1.at, live1.storedEvents),
	}}
	if kill != killFailover {
		return checks
	}
	return append(checks,
		chaosCheck{
			id:   "I7/takeover-reroute",
			text: "devices rerouted to survivors whose dedup gates were seeded from the dead member's marks",
			// Post-kill dataset growth is not required here: a campaign
			// outage can buffer the whole tail of a run into one pre-kill
			// flush. The reroute and seeded-mark counters prove the takeover
			// path ran.
			pass: live.reroutes > 0 && live1.reroutes > 0 &&
				live.takeovers > 0 && live1.takeovers > 0,
			detail: fmt.Sprintf("reroutes=%.0f/%.0f takeover-devices=%.0f/%.0f",
				live.reroutes, live1.reroutes, live.takeovers, live1.takeovers),
		},
		chaosCheck{
			id:   "I7/union-exactly-once",
			text: "stored union across collectors is identical in both worker arms despite mid-run ownership changes",
			pass: live.storedDigest == live1.storedDigest && live.storedEvents == live1.storedEvents &&
				live.storedEvents > 0,
			detail: fmt.Sprintf("workers=N: %d events %s; workers=1: %d events %s",
				live.storedEvents, live.storedDigest, live1.storedEvents, live1.storedDigest),
		},
	)
}

func chaosInvariants(campaign *faultinject.Campaign, baseline, res *fleet.Result) []chaosCheck {
	var checks []chaosCheck

	// I1: per-rule episode accounting.
	byName := make(map[string]faultinject.RuleReport)
	for _, rr := range res.Faults.Rules {
		byName[rr.Name] = rr
	}
	for _, rule := range campaign.Rules {
		rr := byName[rule.Name]
		_, bearing := rule.Class.ExpectedKind()
		pass := rr.Injected == rr.Recovered && (!bearing || rr.Injected > 0)
		checks = append(checks, chaosCheck{
			id:   "I1/" + rule.Name,
			text: "every injected outage resolves",
			pass: pass,
			detail: fmt.Sprintf("injected=%d recovered=%d dropped=%d",
				rr.Injected, rr.Recovered, rr.Dropped),
		})
	}

	// I2: state-machine integrity.
	checks = append(checks, chaosCheck{
		id:   "I2/integrity",
		text: "no device wedges outside the Figure-1 state machine",
		pass: res.Integrity.Clean(),
		detail: fmt.Sprintf("wedged=%d open-setups=%d open-episodes=%d",
			res.Integrity.Wedged, res.Integrity.OpenSetups, res.Integrity.OpenEpisodes),
	})

	// I3: the failure-class mix shifts toward the injected classes.
	baseKinds := kindCounts(baseline)
	faultKinds := kindCounts(res)
	seenKind := map[failure.Kind]bool{}
	for _, rule := range campaign.Rules {
		kind, ok := rule.Class.ExpectedKind()
		if !ok || seenKind[kind] {
			continue
		}
		seenKind[kind] = true
		checks = append(checks, chaosCheck{
			id:   "I3/" + kind.String(),
			text: "failure-class mix shifts in the expected direction",
			pass: faultKinds[kind] > baseKinds[kind],
			detail: fmt.Sprintf("baseline=%d faulted=%d",
				baseKinds[kind], faultKinds[kind]),
		})
	}
	return checks
}

func kindCounts(res *fleet.Result) map[failure.Kind]int {
	out := make(map[failure.Kind]int)
	res.Dataset.Each(func(e *failure.Event) { out[e.Kind]++ })
	return out
}

// ingestInvariants is invariant I4, checked on the upload-mode faulted
// runs: the collector's dataset must be the exact multiset the devices
// recorded, the transport faults must actually have fired (otherwise the
// invariant was vacuous), and the stored multiset must not depend on the
// worker count.
func ingestInvariants(res, res1 *fleet.Result) []chaosCheck {
	var checks []chaosCheck
	var netInjected int64
	for _, rr := range res.Faults.Rules {
		if class, err := faultinject.ParseClass(rr.Class); err == nil && class.IsNetwork() {
			netInjected += rr.Injected
		}
	}
	up, rec := res.Dataset.MultisetDigest(), res.RecordedDigest
	checks = append(checks,
		chaosCheck{
			id:   "I4/exactly-once",
			text: "collector multiset equals the device-recorded multiset",
			pass: res.RecordedEvents > 0 && int64(res.Dataset.Len()) == res.RecordedEvents && up == rec,
			detail: fmt.Sprintf("stored=%d recorded=%d digest=%s recorded-digest=%s",
				res.Dataset.Len(), res.RecordedEvents, up, rec),
		},
		chaosCheck{
			id:     "I4/stressed",
			text:   "transport faults actually fired during upload",
			pass:   netInjected > 0,
			detail: fmt.Sprintf("network-fault episodes injected=%d", netInjected),
		},
		chaosCheck{
			id:   "I4/worker-independence",
			text: "stored multiset is byte-identical across worker counts",
			pass: res1.Dataset.MultisetDigest() == up && res1.Dataset.Len() == res.Dataset.Len(),
			detail: fmt.Sprintf("workers=%d: %d events %s; workers=1: %d events %s",
				res.Scenario.Workers, res.Dataset.Len(), up,
				res1.Dataset.Len(), res1.Dataset.MultisetDigest()),
		},
	)
	return checks
}
