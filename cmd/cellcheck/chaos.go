package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
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
// fault injection trustworthy as a regression harness:
//
//	I1  every injected outage resolves — per rule, at least one episode ran
//	    (for episode-bearing classes) and injected == recovered.
//	I2  no device wedges outside the Figure-1 state machine — the data
//	    connection of every device ends in Inactive or Active and no setup
//	    episode is left in flight.
//	I3  the failure-class mix shifts in the expected direction — for each
//	    fault class in the campaign, the faulted run records at least as
//	    many events of the class's failure kind as the calm baseline.
//	I4  ingestion is exactly-once (campaigns with network rules, or
//	    -network): with every event routed through an in-process collector
//	    under injected dial failures, lost acks, and flaky links, the
//	    collector dataset's event multiset equals the union of what the
//	    devices recorded — nothing lost, nothing duplicated — and is
//	    byte-identical across worker counts.
//	I5  streaming equals batch (upload mode): a live analysis engine fed
//	    from the collector's admit path serves /api/live/figures while the
//	    faulted fleet uploads, and after the drain the live figures and
//	    claims JSON are byte-identical to a batch pass over the collected
//	    dataset — and identical across worker counts.
//	I6  crash durability (-restart, or -fleet's merged variant): the
//	    collector — backed by a segment store — is SIGKILLed mid-campaign
//	    and rebooted from disk; the devices' backoff/WAL retries carry
//	    everything across the outage, so I4/I5 must still hold
//	    end-to-end, the store's segments must answer queries while ingest
//	    continues, and the post-drain segment contents must reproduce the
//	    stored multiset and batch figures byte-for-byte.
//	I7  failover exactly-once (-fleet N -failover): with the uploaders
//	    routed across N store-backed collectors by a consistent-hash
//	    ring, one collector is SIGKILLed mid-campaign; its devices reroute
//	    to the survivors, whose dedup gates are seeded from the dead
//	    member's replayed marks. The stored union across all members —
//	    served through the merged segment API, the dead member's segments
//	    via a read-only adoption of its directory — must equal the
//	    recorded multiset even though the collector a device talks to
//	    changed mid-run, and must match a single-collector run of the
//	    same scenario byte-for-byte.
func runChaos(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	var (
		devices  = fs.Int("devices", 2000, "fleet size")
		seed     = fs.Int64("seed", 7, "simulation seed")
		workers  = fs.Int("workers", 8, "worker shards")
		months   = fs.Float64("months", 4, "measurement window in months")
		faults   = fs.String("faults", "", "JSON fault-campaign file (default: the bundled BS-blackout campaign, or the bundled network campaign with -network)")
		network  = fs.Bool("network", false, "upload events through an in-process collector under transport faults and check the exactly-once invariant I4")
		restart  = fs.Bool("restart", false, "SIGKILL the segment-store-backed collector mid-campaign, reboot it from disk, and check exactly-once across the restart (implies upload mode)")
		fleetN   = fs.Int("fleet", 0, "route uploads across N store-backed collectors behind a consistent-hash ring (implies upload mode; N >= 2)")
		failover = fs.Bool("failover", false, "SIGKILL one fleet collector mid-campaign and check exactly-once across the takeover (invariant I7; implies -fleet 3)")
	)
	_ = fs.Parse(args)
	if *failover && *fleetN < 2 {
		*fleetN = 3
	}
	if *fleetN == 1 {
		log.Fatal("cellcheck chaos: -fleet needs at least 2 collectors")
	}
	if *restart && *fleetN > 1 {
		log.Fatal("cellcheck chaos: -restart and -fleet are mutually exclusive (use -fleet -failover for crash durability across a fleet)")
	}

	scenario := fleet.Scenario{
		Seed:       *seed,
		NumDevices: *devices,
		Workers:    *workers,
		Window:     time.Duration(*months * 30 * 24 * float64(time.Hour)),
	}

	var campaign *faultinject.Campaign
	if *faults != "" {
		var err error
		campaign, err = faultinject.LoadCampaign(*faults)
		if err != nil {
			log.Fatalf("cellcheck chaos: %v", err)
		}
	} else if *network || *restart || *fleetN > 1 {
		campaign = faultinject.DefaultNetworkCampaign(scenario.Window)
	} else {
		campaign = faultinject.DefaultBlackoutCampaign(scenario.Window)
	}
	uploadMode := *network || *restart || *fleetN > 1 || campaign.HasNetworkRules()

	fmt.Printf("chaos: campaign %q over %d devices, %.1f months, seed %d\n",
		campaign.Name, scenario.NumDevices, scenario.Window.Hours()/24/30, scenario.Seed)

	baseline, err := fleet.Run(scenario)
	if err != nil {
		log.Fatalf("cellcheck chaos: baseline run: %v", err)
	}

	// runFaultedFleet executes the campaign with the shard uploaders
	// routed across *fleetN store-backed collectors by a consistent-hash
	// ring (Scenario.UploadRouter). All members admit into one shared
	// dataset and one live streaming engine; the merged segment API serves
	// the union of their stores. With -failover, a monitor SIGKILLs the
	// collector owning device 0 once a quarter of the baseline event count
	// has been admitted and that collector has stored at least one batch:
	// the ring reroutes its devices to the survivors, whose dedup gates
	// were seeded from the dead member's replayed marks (invariant I7),
	// while merged segment queries keep answering — the dead member's
	// segments through a read-only adoption of its directory.
	runFaultedFleet := func(workers int) (*fleet.Result, *liveRun) {
		faulted := scenario
		faulted.Workers = workers
		faulted.Faults = campaign

		ds := trace.NewDataset()
		eng := analysis.NewStreaming(analysis.LiveInput(ds), analysis.StreamingOptions{})
		defer eng.Close()

		storeDir, err := os.MkdirTemp("", "cellcheck-chaos-fleet-*")
		if err != nil {
			log.Fatalf("cellcheck chaos: fleet store dir: %v", err)
		}
		defer os.RemoveAll(storeDir)
		fc, err := ring.StartFleet(*fleetN, ds, ring.FleetOptions{
			Seed:      scenario.Seed,
			Dir:       storeDir,
			Collector: trace.CollectorOptions{OnAdmit: eng.Ingest},
		})
		if err != nil {
			log.Fatalf("cellcheck chaos: fleet: %v", err)
		}
		defer fc.Close()
		faulted.UploadRouter = fc.Router()

		mux := http.NewServeMux()
		analysis.NewLiveAPI(eng, core.Catalogue()).Routes(mux)
		trace.NewMergeAPI(fc.Sources).Routes(mux)
		srv := httptest.NewServer(mux)
		defer srv.Close()

		live := &liveRun{fleetSize: *fleetN}
		reroutes0 := chaosMetric("trace_uploader_reroutes_total")
		takeovers0 := chaosMetric("trace_collector_takeover_devices")

		var failMu sync.Mutex
		var failInfo struct {
			fired            bool
			victim, killedAt int
		}
		monitorStop := make(chan struct{})
		monitorDone := make(chan struct{})
		if *failover {
			target := baseline.Dataset.Len() / 4
			if target < 1 {
				target = 1
			}
			go func() {
				defer close(monitorDone)
				victim := fc.OwnerIndex(0)
				if victim < 0 {
					victim = 0
				}
				// The shared dataset reaching the target says nothing about
				// this member: wait until its own store holds a device mark,
				// or the takeover has nothing to seed the survivors with.
				victimStore := fc.Sources()[victim].Store
				for ds.Len() < target || len(victimStore.Marks()) == 0 {
					select {
					case <-monitorStop:
						return
					case <-time.After(2 * time.Millisecond):
					}
				}
				if err := fc.Fail(victim); err != nil {
					log.Fatalf("cellcheck chaos: failover: %v", err)
				}
				killedAt := ds.Len()
				failMu.Lock()
				failInfo.fired, failInfo.victim, failInfo.killedAt = true, victim, killedAt
				failMu.Unlock()
				fmt.Printf("fleet (workers=%d): killed col-%d at %d events, survivors seeded and rerouting\n",
					workers, victim, killedAt)
			}()
		} else {
			close(monitorDone)
		}

		done := make(chan *fleet.Result, 1)
		go func() {
			res, err := fleet.Run(faulted)
			if err != nil {
				log.Fatalf("cellcheck chaos: faulted fleet run (workers=%d): %v", workers, err)
			}
			done <- res
		}()
		var res *fleet.Result
		for res == nil {
			select {
			case res = <-done:
			case <-time.After(5 * time.Millisecond):
				liveFetch(srv, "/api/live/figures")
				liveFetch(srv, "/api/live/status")
				live.queries += 2
				if liveFetch(srv, "/api/segments") != nil {
					live.segQueries++
				}
			}
		}
		close(monitorStop)
		<-monitorDone
		failMu.Lock()
		live.failoverFired, live.fleetVictim, live.fleetKilledAt = failInfo.fired, failInfo.victim, failInfo.killedAt
		failMu.Unlock()

		if err := fc.Drain(5 * time.Second); err != nil {
			log.Fatalf("cellcheck chaos: fleet drain: %v", err)
		}
		res.Dataset = ds
		live.fleetEnd = ds.Len()
		live.reroutes = chaosMetric("trace_uploader_reroutes_total") - reroutes0
		live.takeovers = chaosMetric("trace_collector_takeover_devices") - takeovers0
		fmt.Printf("fleet (workers=%d): %d events across %d collectors, %d dedup hits, %d redirects, digest %s\n",
			workers, ds.Len(), *fleetN, fc.DedupHits(), fc.Redirects(), ds.MultisetDigest())

		captureStreaming(live, eng, srv, res, ds)

		// Seal every live store, then rebuild the dataset from the merged
		// segment API — the union of all members, the dead one included via
		// its adopted read-only store — and render figures from it: the
		// durable fleet-wide bytes must reproduce the stored multiset and
		// the batch figures bit-for-bit.
		if err := fc.CloseStores(); err != nil {
			log.Fatalf("cellcheck chaos: fleet store close: %v", err)
		}
		captureSegments(live, srv, res, ds)
		return res, live
	}

	// runFaulted executes the campaign, in upload mode routing every event
	// through a fresh in-process collector so transport faults have a real
	// TCP path to break; the result's Dataset is then the collector's copy
	// — exactly what a production deployment would have persisted. A live
	// streaming engine rides the collector's admit path and its endpoints
	// are queried mid-run, so invariant I5 exercises live analysis under
	// the same transport chaos. With -restart the collector is backed by a
	// segment store and SIGKILLed mid-campaign: a monitor goroutine kills
	// it once a quarter of the baseline event count has been admitted,
	// reboots a new collector from the replayed store on the same address,
	// and the devices' retries carry the rest of the campaign across the
	// outage (invariant I6).
	runFaulted := func(workers int) (*fleet.Result, *liveRun) {
		if *fleetN > 1 {
			return runFaultedFleet(workers)
		}
		faulted := scenario
		faulted.Workers = workers
		faulted.Faults = campaign
		if !uploadMode {
			res, err := fleet.Run(faulted)
			if err != nil {
				log.Fatalf("cellcheck chaos: faulted run: %v", err)
			}
			return res, nil
		}
		ds := trace.NewDataset()
		eng := analysis.NewStreaming(analysis.LiveInput(ds), analysis.StreamingOptions{})
		defer eng.Close()

		// cur tracks the collector/dataset/store generation: the restart
		// monitor swaps in the rebooted trio mid-campaign.
		cur := &struct {
			mu        sync.Mutex
			col       *trace.Collector
			ds        *trace.Dataset
			st        *trace.SegStore
			restarted bool
			killedAt  int
		}{ds: ds}

		var storeDir string
		if *restart {
			var err error
			storeDir, err = os.MkdirTemp("", "cellcheck-chaos-store-*")
			if err != nil {
				log.Fatalf("cellcheck chaos: store dir: %v", err)
			}
			defer os.RemoveAll(storeDir)
			cur.st, err = trace.OpenSegStore(storeDir, trace.SegStoreOptions{}, nil)
			if err != nil {
				log.Fatalf("cellcheck chaos: store: %v", err)
			}
		}
		col, err := trace.NewCollectorWith("127.0.0.1:0", ds, trace.CollectorOptions{
			OnAdmit: eng.Ingest,
			Store:   cur.st,
		})
		if err != nil {
			log.Fatalf("cellcheck chaos: collector: %v", err)
		}
		cur.col = col
		addr := col.Addr()
		faulted.UploadAddr = addr

		mux := http.NewServeMux()
		analysis.NewLiveAPI(eng, core.Catalogue()).Routes(mux)
		if *restart {
			// The store handle changes at the restart, so the segment API
			// resolves the current generation per request.
			segments := func(w http.ResponseWriter, r *http.Request) {
				cur.mu.Lock()
				st := cur.st
				cur.mu.Unlock()
				inner := http.NewServeMux()
				trace.NewStoreAPI(st).Routes(inner)
				inner.ServeHTTP(w, r)
			}
			mux.HandleFunc("/api/segments", segments)
			mux.HandleFunc("/api/segments/", segments)
		}
		srv := httptest.NewServer(mux)
		defer srv.Close()

		live := &liveRun{}
		monitorStop := make(chan struct{})
		monitorDone := make(chan struct{})
		if *restart {
			// Kill once the campaign is well underway: a quarter of the
			// baseline's event count has been admitted and made durable.
			target := baseline.Dataset.Len() / 4
			if target < 1 {
				target = 1
			}
			go func() {
				defer close(monitorDone)
				for ds.Len() < target {
					select {
					case <-monitorStop:
						return
					case <-time.After(2 * time.Millisecond):
					}
				}
				// SIGKILL approximation: no drain, no acks, no final
				// checkpoint or seal. Collector first (its wg.Wait lets
				// in-flight appends finish), then the store fd.
				col.Kill()
				cur.st.Kill()
				killedAt := ds.Len()

				ds2 := trace.NewDataset()
				st2, err := trace.OpenSegStore(storeDir, trace.SegStoreOptions{}, trace.ReplayInto(ds2))
				if err != nil {
					log.Fatalf("cellcheck chaos: store reboot: %v", err)
				}
				// Reboot on the same address so the devices' retries land
				// without reconfiguration. The old listener is closed, but
				// give the kernel a beat to release the port if needed.
				var col2 *trace.Collector
				for i := 0; i < 200; i++ {
					col2, err = trace.NewCollectorWith(addr, ds2, trace.CollectorOptions{
						OnAdmit: eng.Ingest,
						Store:   st2,
					})
					if err == nil {
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
				if err != nil {
					log.Fatalf("cellcheck chaos: collector reboot: %v", err)
				}
				cur.mu.Lock()
				cur.col, cur.ds, cur.st = col2, ds2, st2
				cur.restarted, cur.killedAt = true, killedAt
				cur.mu.Unlock()
				fmt.Printf("collector (workers=%d): killed at %d events, rebooted from %d replayed\n",
					workers, killedAt, ds2.Len())
			}()
		} else {
			close(monitorDone)
		}

		done := make(chan *fleet.Result, 1)
		go func() {
			res, err := fleet.Run(faulted)
			if err != nil {
				log.Fatalf("cellcheck chaos: faulted run (workers=%d): %v", workers, err)
			}
			done <- res
		}()
		var res *fleet.Result
		for res == nil {
			select {
			case res = <-done:
			case <-time.After(5 * time.Millisecond):
				liveFetch(srv, "/api/live/figures")
				liveFetch(srv, "/api/live/status")
				live.queries += 2
				if *restart {
					if liveFetch(srv, "/api/segments") != nil {
						live.segQueries++
					}
				}
			}
		}
		close(monitorStop)
		<-monitorDone
		cur.mu.Lock()
		col, ds = cur.col, cur.ds
		st := cur.st
		live.restarted, live.killedAt = cur.restarted, cur.killedAt
		cur.mu.Unlock()

		col.Drain(5 * time.Second)
		fmt.Printf("collector (workers=%d): %d events, %d dedup hits, %d nacks, digest %s\n",
			workers, ds.Len(), col.DedupHits(), col.Nacks(), ds.MultisetDigest())
		res.Dataset = ds

		// Settle the streaming side with the run's final context, then
		// capture both sides of the streaming=batch comparison.
		captureStreaming(live, eng, srv, res, ds)

		if *restart {
			// Close the store (sealing the tail), download every segment
			// over HTTP, and rebuild the dataset from the raw frames: the
			// durable bytes must reproduce the stored multiset and the
			// batch figures bit-for-bit.
			if err := st.Close(); err != nil {
				log.Fatalf("cellcheck chaos: store close: %v", err)
			}
			captureSegments(live, srv, res, ds)
		}
		return res, live
	}

	res, live := runFaulted(*workers)
	fmt.Printf("%s\n", res.Faults)

	checks := chaosInvariants(campaign, baseline, res)
	if uploadMode {
		res1, live1 := res, live
		if *workers != 1 {
			res1, live1 = runFaulted(1)
		}
		checks = append(checks, ingestInvariants(res, res1)...)
		checks = append(checks, streamingInvariants(live, live1)...)
		if *restart {
			checks = append(checks, restartInvariants(live, live1)...)
		}
		if *fleetN > 1 {
			// Single-collector reference arm: the same scenario and campaign
			// through one plain collector. The merged fleet union must land
			// on exactly this dataset digest.
			refDs := trace.NewDataset()
			refCol, err := trace.NewCollector("127.0.0.1:0", refDs)
			if err != nil {
				log.Fatalf("cellcheck chaos: reference collector: %v", err)
			}
			refScenario := scenario
			refScenario.Faults = campaign
			refScenario.UploadAddr = refCol.Addr()
			if _, err := fleet.Run(refScenario); err != nil {
				log.Fatalf("cellcheck chaos: reference run: %v", err)
			}
			refCol.Drain(5 * time.Second)
			fmt.Printf("reference (single collector): %d events, digest %s\n", refDs.Len(), refDs.MultisetDigest())
			checks = append(checks, fleetInvariants(live, live1, refDs, *failover)...)
			refCol.Close()
		}
	}
	failures := 0
	for _, c := range checks {
		status := "PASS"
		if !c.pass {
			status = "FAIL"
			failures++
		}
		fmt.Printf("[%s] %-14s %s — %s\n", status, c.id, c.text, c.detail)
	}
	if failures > 0 {
		fmt.Printf("chaos: %d/%d invariants failed\n", failures, len(checks))
		os.Exit(1)
	}
	fmt.Printf("chaos: all %d invariants hold\n", len(checks))
}

type chaosCheck struct {
	id     string
	text   string
	pass   bool
	detail string
}

// liveRun captures one faulted upload run's live-analysis observations:
// how many mid-run queries the live endpoints answered, the post-drain
// streaming bytes, and the batch bytes they must equal. With -restart it
// also records the kill/reboot and the segment-store round trip.
type liveRun struct {
	queries      int
	resynced     bool
	status       analysis.StreamingStatus
	figures      []byte
	claims       []byte
	batchFigures []byte
	batchClaims  []byte

	// -restart observations.
	restarted    bool
	killedAt     int // events admitted when the collector was killed
	segQueries   int // mid-run /api/segments responses while ingest ran
	storedEvents int
	storedDigest trace.Digest
	segEvents    int // events rebuilt from downloaded segment frames
	segDigest    trace.Digest
	segFigures   []byte

	// -fleet observations.
	fleetSize     int
	failoverFired bool
	fleetVictim   int
	fleetKilledAt int     // shared-dataset size when the victim was killed
	fleetEnd      int     // shared-dataset size after the drain
	reroutes      float64 // delta of trace_uploader_reroutes_total over the run
	takeovers     float64 // delta of trace_collector_takeover_devices over the run
}

// captureStreaming settles the live engine with the run's final context
// and captures both sides of the streaming=batch comparison (I5).
func captureStreaming(live *liveRun, eng *analysis.Streaming, srv *httptest.Server, res *fleet.Result, ds *trace.Dataset) {
	if err := eng.WaitIdle(10 * time.Second); err != nil {
		log.Fatalf("cellcheck chaos: live engine: %v", err)
	}
	in := analysis.FromResult(res)
	in.Dataset = ds
	live.resynced = eng.Sync(in)
	live.status = eng.Status()
	live.figures = liveFetch(srv, "/api/live/figures")
	live.claims = liveFetch(srv, "/api/live/claims")
	pass := analysis.NewPass(in)
	var err error
	if live.batchFigures, err = pass.FiguresJSON(core.Catalogue()); err != nil {
		log.Fatalf("cellcheck chaos: batch figures: %v", err)
	}
	if live.batchClaims, err = pass.ClaimsJSON(); err != nil {
		log.Fatalf("cellcheck chaos: batch claims: %v", err)
	}
}

// captureSegments downloads every segment /api/segments lists — one
// store's, or a fleet's merged union when the entries name a collector —
// rebuilds a dataset from the raw frames, and captures both sides of the
// segments=stored comparison (I6) plus the figures rendered from the
// rebuilt dataset.
func captureSegments(live *liveRun, srv *httptest.Server, res *fleet.Result, ds *trace.Dataset) {
	live.storedEvents = ds.Len()
	live.storedDigest = ds.MultisetDigest()
	// A single store's index entries unmarshal with Collector empty.
	var idx []trace.MergedSegmentInfo
	if err := json.Unmarshal(liveFetch(srv, "/api/segments"), &idx); err != nil {
		log.Fatalf("cellcheck chaos: segment index: %v", err)
	}
	segDs := trace.NewDataset()
	replay := trace.ReplayInto(segDs)
	for _, info := range idx {
		query := fmt.Sprintf("id=%d", info.ID)
		if info.Collector != "" {
			query = "collector=" + info.Collector + "&" + query
		}
		br := bufio.NewReader(bytes.NewReader(liveFetch(srv, "/api/segments/data?"+query)))
		for {
			b, _, _, err := trace.ReadBatchAny(br)
			if err == io.EOF {
				break
			}
			if err != nil {
				log.Fatalf("cellcheck chaos: segment %s decode: %v", query, err)
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
		log.Fatalf("cellcheck chaos: segment figures: %v", err)
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

// restartInvariants is invariant I6, checked on -restart runs: the kill
// and reboot must actually have happened mid-campaign (in both worker
// arms — otherwise the cross-restart exactly-once claim is vacuous), the
// segment API must have answered queries while ingest was live, and the
// dataset rebuilt from the downloaded segment frames must reproduce the
// stored multiset and the batch figures byte-for-byte. Together with
// I4/I5 — which run on the same datasets — this is exactly-once across
// SIGKILL plus reboot-from-disk.
func restartInvariants(live, live1 *liveRun) []chaosCheck {
	return []chaosCheck{
		{
			id:   "I6/restart-fired",
			text: "the collector was killed mid-campaign and rebooted from its store",
			pass: live.restarted && live1.restarted && live.killedAt > 0 && live1.killedAt > 0,
			detail: fmt.Sprintf("workers=N killed at %d events; workers=1 killed at %d",
				live.killedAt, live1.killedAt),
		},
		{
			id:     "I6/segments-live",
			text:   "the segment index answered queries while ingest continued",
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

// fleetInvariants covers the -fleet arms: the merged-segment variant of
// I6 (the fleet-wide durable union answers queries mid-run and
// reproduces the stored multiset and batch figures), and — with
// -failover — invariant I7: the takeover actually happened mid-campaign
// in both worker arms, devices rerouted and kept uploading past the
// kill, the survivors' seeded dedup gates absorbed the replays, and the
// stored union matches the single-collector reference run of the same
// scenario byte-for-byte.
func fleetInvariants(live, live1 *liveRun, refDs *trace.Dataset, failover bool) []chaosCheck {
	checks := []chaosCheck{
		{
			id:     "I6/segments-live",
			text:   "the merged segment index answered queries while ingest continued",
			pass:   live.segQueries > 0 && live1.segQueries > 0,
			detail: fmt.Sprintf("mid-run merged queries: workers=N %d, workers=1 %d", live.segQueries, live1.segQueries),
		},
		{
			id:   "I6/segments-batch-equal",
			text: "the merged segment union reproduces the stored multiset and batch figures",
			pass: live.segEvents == live.storedEvents && live.segDigest == live.storedDigest &&
				live1.segEvents == live1.storedEvents && live1.segDigest == live1.storedDigest &&
				len(live.segFigures) > 0 && bytes.Equal(live.segFigures, live.batchFigures) &&
				bytes.Equal(live1.segFigures, live1.batchFigures),
			detail: fmt.Sprintf("union=%d events digest=%s stored=%d digest=%s figures=%dB",
				live.segEvents, live.segDigest, live.storedEvents, live.storedDigest, len(live.segFigures)),
		},
	}
	if failover {
		checks = append(checks,
			chaosCheck{
				id:   "I7/failover-fired",
				text: "one collector was SIGKILLed mid-campaign in both worker arms",
				pass: live.failoverFired && live1.failoverFired && live.fleetKilledAt > 0 && live1.fleetKilledAt > 0,
				detail: fmt.Sprintf("workers=N killed col-%d at %d events; workers=1 killed col-%d at %d",
					live.fleetVictim, live.fleetKilledAt, live1.fleetVictim, live1.fleetKilledAt),
			},
			chaosCheck{
				id:   "I7/takeover-reroute",
				text: "devices rerouted to survivors whose dedup gates were seeded from the dead member's marks",
				// Post-kill dataset growth is reported but not required: a
				// campaign outage can buffer the whole tail of a run into one
				// pre-kill flush, leaving nothing to deliver afterwards. The
				// reroute and seeded-mark counters prove the takeover path ran.
				pass: live.reroutes > 0 && live1.reroutes > 0 &&
					live.takeovers > 0 && live1.takeovers > 0,
				detail: fmt.Sprintf("reroutes=%.0f/%.0f takeover-devices=%.0f/%.0f events %d→%d / %d→%d",
					live.reroutes, live1.reroutes, live.takeovers, live1.takeovers,
					live.fleetKilledAt, live.fleetEnd, live1.fleetKilledAt, live1.fleetEnd),
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
	checks = append(checks, chaosCheck{
		id:   "I7/single-collector-equal",
		text: "the fleet's stored union equals a single-collector run of the same scenario",
		pass: refDs.Len() == live.storedEvents && refDs.MultisetDigest() == live.storedDigest,
		detail: fmt.Sprintf("fleet=%d events %s; single=%d events %s",
			live.storedEvents, live.storedDigest, refDs.Len(), refDs.MultisetDigest()),
	})
	return checks
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
