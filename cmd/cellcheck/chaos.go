package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/trace"
	"repro/internal/trace/ring"
)

// runChaos runs a document that has a fault campaign: a calm baseline
// run, the same scenario under the campaign, and the recovery invariants
// that make fault injection trustworthy as a regression harness. It
// returns the checks; an error means the harness itself could not run.
// With a backend, the faulted runs go through the one upload harness
// (runUpload).
//
//	I1  every injected outage resolves — per rule, at least one episode ran
//	    (for episode-bearing classes) and injected == recovered.
//	I2  no device wedges outside the Figure-1 state machine — the data
//	    connection of every device ends in Inactive or Active and no setup
//	    episode is left in flight.
//	I3  the failure-class mix shifts in the expected direction — for each
//	    fault class in the campaign, the faulted run records at least as
//	    many events of the class's failure kind as the calm baseline.
//	I4  ingestion is exactly-once (backend): with every event routed
//	    through in-process collectors under injected dial failures, lost
//	    acks, and flaky links, the collected dataset's event multiset
//	    equals the union of what the devices recorded — nothing lost,
//	    nothing duplicated — and is byte-identical across worker counts.
//	I5  streaming equals batch (backend): a live analysis engine fed
//	    from the collectors' admit path serves /api/live/figures while the
//	    faulted fleet uploads, and after the drain the live figures and
//	    claims JSON are byte-identical to a batch pass over the collected
//	    dataset — and identical across worker counts.
//	I6  crash durability (backend): the collectors' segment stores
//	    answer queries while ingest continues, and after the drain the
//	    segments downloaded over HTTP reproduce the stored multiset and
//	    the batch figures byte-for-byte — disk truth, re-derived. With
//	    kill restart a collector is SIGKILLed mid-campaign and rebooted
//	    from disk; the devices' backoff/WAL retries carry everything across
//	    the outage, so I4/I5 and the segment checks must still hold.
//	I7  fleet exactly-once (2 or more collectors): the stored union across
//	    all members matches a single-collector run of the same scenario
//	    byte-for-byte. With kill failover one collector is SIGKILLed
//	    mid-campaign; its devices reroute to the survivors, whose stores
//	    are seeded with the dead member's replayed marks, and its
//	    segments stay served through a read-only adoption of its
//	    directory — the union must still equal the recorded multiset even
//	    though the collector a device talks to changed mid-run.
func runChaos(s fleet.Scenario, backend *fleet.Backend, out io.Writer) ([]chaosCheck, error) {
	n := s.Normalized()
	fmt.Fprintf(out, "chaos: campaign %q over %d devices, %.1f months, seed %d\n",
		s.Faults.Name, n.NumDevices, n.Window.Hours()/24/30, n.Seed)
	calm := s
	calm.Faults = nil
	baseline, baseKinds, err := runCounted(calm)
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	if backend == nil {
		res, kinds, err := runCounted(s)
		if err != nil {
			return nil, fmt.Errorf("faulted run: %w", err)
		}
		fmt.Fprintf(out, "%s\n", res.Faults)
		return chaosInvariants(s.Faults, res, baseKinds, kinds), nil
	}

	// Kill once the campaign is well underway: a quarter of the baseline's
	// event count admitted.
	plan := &chaosPlan{scenario: s, Backend: *backend, killAfter: max(1, baseline.Monitor.Recorded/4)}
	res, live, err := plan.runUpload(n.Workers, out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", res.Faults)
	res1, live1 := res, live
	if n.Workers != 1 {
		if res1, live1, err = plan.runUpload(1, out); err != nil {
			return nil, err
		}
	}
	var kinds kindCounts
	res.Dataset.Each(func(e *failure.Event) { kinds[e.Kind]++ })
	checks := chaosInvariants(s.Faults, res, baseKinds, kinds)
	checks = append(checks, ingestInvariants(res, res1)...)
	checks = append(checks, streamingInvariants(live, live1)...)
	checks = append(checks, segmentInvariants(live, live1)...)
	if plan.Kill != "" {
		checks = append(checks, killInvariants(plan.Kill, live, live1)...)
	}
	if plan.Collectors > 1 {
		// The oracle: the same scenario and campaign through one collector.
		// The fleet's union must land on exactly this dataset digest.
		ref := *plan
		ref.Backend = fleet.Backend{Collectors: 1}
		refRes, _, err := ref.runUpload(n.Workers, io.Discard)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		refDs := refRes.Dataset
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

// chaosPlan is what every faulted upload run of one document shares.
type chaosPlan struct {
	scenario fleet.Scenario // with its campaign
	fleet.Backend
	killAfter int // fleet-wide admitted events before the kill may fire
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
	queries      int // mid-run /api/live/* answers while ingest ran
	segQueries   int // mid-run /api/segments answers while ingest ran
	status       analysis.StreamingStatus
	figures      []byte
	claims       []byte
	batchFigures []byte
	batchClaims  []byte

	storedEvents int
	storedDigest trace.Digest
	segEvents    int // events decoded from downloaded segment frames
	segDigest    trace.Digest
	segFigures   []byte

	kill      killReport
	reroutes  float64 // delta of trace_uploader_reroutes_total over the run
	takeovers float64 // delta of trace_collector_takeover_devices over the run
}

// runUpload executes the campaign with every event routed through a fresh
// in-process ingest node of plan.Collectors collectors
// (Scenario.UploadRouter), so transport faults have a real TCP path to
// break; the node's dataset becomes the result's Dataset, and its live and
// segment endpoints are queried mid-run. The node owns how the tier is
// assembled and shut down, the ring how a member is killed and rebooted;
// this function only decides when.
func (p *chaosPlan) runUpload(workers int, out io.Writer) (*fleet.Result, *liveRun, error) {
	storeDir, err := os.MkdirTemp("", "cellcheck-chaos-*")
	if err != nil {
		return nil, nil, fmt.Errorf("store dir: %w", err)
	}
	defer os.RemoveAll(storeDir)
	gate := newKillGate() // never armed without a kill action
	n, err := node.Start(node.Options{
		Fleet: ring.FleetOptions{
			Seed:      p.scenario.Seed,
			Dir:       storeDir,
			Collector: trace.CollectorOptions{OnAdmit: func([]failure.Event) { gate.admitted() }},
		},
		Collectors: p.Collectors,
	})
	if err != nil {
		return nil, nil, err
	}
	defer n.Shutdown(0) // for the error returns below; the drain path has shut it down first
	ds, fc := n.Dataset(), n.Fleet()

	mux := http.NewServeMux()
	n.Routes(mux)
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
				live.poll(srv)
			}
		}
	}()

	faulted := p.scenario
	faulted.Workers = workers
	faulted.UploadRouter = fc.Router()
	res, err := fleet.Run(faulted)
	close(stop)
	<-polled
	live.kill = <-monitor
	if err != nil {
		return nil, nil, fmt.Errorf("faulted run (workers=%d): %w", workers, err)
	}
	if live.kill.err != nil {
		return nil, nil, fmt.Errorf("%s (workers=%d): %w", p.Kill, workers, live.kill.err)
	}
	if live.kill.at > 0 {
		fmt.Fprintf(out, "ingest (workers=%d): %s — col-%d killed with %d events admitted\n", workers, p.Kill, live.kill.victim, live.kill.at)
	}

	// The dataset, the live figures and the sealed segments are now final.
	if err := n.Shutdown(5 * time.Second); err != nil {
		return nil, nil, err
	}
	res.Dataset = ds
	live.reroutes = chaosMetric("trace_uploader_reroutes_total") - reroutes0
	live.takeovers = chaosMetric("trace_collector_takeover_devices") - takeovers0
	fmt.Fprintf(out, "ingest (workers=%d): %d events across %d collectors, %d dedup hits, %d redirects, digest %s\n",
		workers, ds.Len(), p.Collectors, fc.DedupHits(), fc.Redirects(), ds.MultisetDigest())

	if err := captureStreaming(live, n.Engine(), srv, res); err != nil {
		return nil, nil, err
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
	if p.Kill == "" {
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
	if p.Kill == fleet.KillRestart {
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

// captureStreaming installs the run's final context in the settled live
// engine and captures both sides of the streaming=batch comparison (I5).
func captureStreaming(live *liveRun, eng *analysis.Streaming, srv *httptest.Server, res *fleet.Result) error {
	in := analysis.FromResult(res)
	eng.Sync(in)
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

// captureSegments downloads every segment the merged /api/segments lists —
// a failed member's included, through its adopted read-only store — and
// folds the frames as they decode, keeping no event, into both sides of
// the segments=stored comparison (I6) and the folded pass's figures.
func captureSegments(live *liveRun, srv *httptest.Server, res *fleet.Result) error {
	live.storedEvents = res.Dataset.Len()
	live.storedDigest = res.Dataset.MultisetDigest()
	var idx []trace.MergedSegmentInfo
	if err := json.Unmarshal(liveFetch(srv, "/api/segments"), &idx); err != nil {
		return fmt.Errorf("segment index: %w", err)
	}
	fold := analysis.NewFold()
	var buf []byte
	var b trace.Batch // reused: the fold keeps no event
	for _, info := range idx {
		query := fmt.Sprintf("collector=%s&id=%d", info.Collector, info.ID)
		br := bufio.NewReader(bytes.NewReader(liveFetch(srv, "/api/segments/data?"+query)))
		for {
			b.Events = b.Events[:0]
			raw, err := trace.ReadFrameRaw(br, buf, &b)
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("segment %s decode: %w", query, err)
			}
			buf = raw[:0]
			fold.Add(b.Events)
			for i := range b.Events {
				live.segDigest.Add(trace.EventDigest(&b.Events[i]))
			}
			live.segEvents += len(b.Events)
		}
	}
	var err error
	if live.segFigures, err = fold.Pass(res.Context).FiguresJSON(core.Catalogue()); err != nil {
		return fmt.Errorf("segment figures: %w", err)
	}
	return nil
}

// poll queries the live and segment endpoints once, counting the ones
// that answered.
func (live *liveRun) poll(srv *httptest.Server) {
	for _, path := range []string{"/api/live/figures", "/api/live/status"} {
		if liveFetch(srv, path) != nil {
			live.queries++
		}
	}
	if liveFetch(srv, "/api/segments") != nil {
		live.segQueries++
	}
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
	return []chaosCheck{
		{
			id:   "I5/streaming-batch",
			text: "post-drain live figures and claims equal the batch renderer byte-for-byte",
			pass: len(live.figures) > 0 && bytes.Equal(live.figures, live.batchFigures) &&
				bytes.Equal(live.claims, live.batchClaims),
			detail: fmt.Sprintf("live=%dB batch=%dB claims live=%dB batch=%dB events=%d",
				len(live.figures), len(live.batchFigures), len(live.claims), len(live.batchClaims),
				live.status.Events),
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
// flushes each device's events as the device finishes, so in both worker
// arms the monitor must have pulled the trigger strictly before the last
// event was admitted. With kill failover the takeover path must also have
// run: devices rerouted, survivors' stores seeded, and the stored union
// identical across the worker arms.
func killInvariants(kill string, live, live1 *liveRun) []chaosCheck {
	id, text := "I6/restart-fired", "one collector was SIGKILLed mid-stream and rebooted from its store on the same address"
	if kill == fleet.KillFailover {
		id, text = "I7/failover-fired", "one collector was SIGKILLed mid-stream and its devices handed to the survivors"
	}
	k, k1 := live.kill, live1.kill
	checks := []chaosCheck{{
		id:   id,
		text: text,
		pass: 0 < k.at && k.at < live.storedEvents && 0 < k1.at && k1.at < live1.storedEvents,
		detail: fmt.Sprintf("workers=N killed col-%d with %d of %d events admitted; workers=1 killed col-%d with %d of %d",
			k.victim, k.at, live.storedEvents, k1.victim, k1.at, live1.storedEvents),
	}}
	if kill != fleet.KillFailover {
		return checks
	}
	return append(checks,
		chaosCheck{
			id:   "I7/takeover-reroute",
			text: "devices rerouted to survivors whose stores were seeded with the dead member's marks",
			// The reroute and seeded-mark counters prove the takeover path
			// ran.
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

// kindCounts counts a run's events per failure kind.
type kindCounts [failure.NumKinds]int

// runCounted runs s with a counting sink per worker (fleet.RunInto) and
// adds their counts up, so the run keeps no event. An uploading scenario
// is refused: its events are the backend's to count.
func runCounted(s fleet.Scenario) (*fleet.Result, kindCounts, error) {
	var parts []*kindCounts
	res, err := fleet.RunInto(s, func() monitor.Sink {
		k := new(kindCounts)
		parts = append(parts, k)
		return func(e failure.Event) { k[e.Kind]++ }
	})
	var sum kindCounts
	for _, k := range parts {
		for kind, n := range k {
			sum[kind] += n
		}
	}
	return res, sum, err
}

// chaosInvariants checks I1-I3 on the faulted run res, whose events
// count as faultKinds per kind against the calm baseline's baseKinds.
func chaosInvariants(campaign *faultinject.Campaign, res *fleet.Result, baseKinds, faultKinds kindCounts) []chaosCheck {
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
			pass: res.Monitor.Recorded > 0 && res.Dataset.Len() == res.Monitor.Recorded && up == rec,
			detail: fmt.Sprintf("stored=%d recorded=%d digest=%s recorded-digest=%s",
				res.Dataset.Len(), res.Monitor.Recorded, up, rec),
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
