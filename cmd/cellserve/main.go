// Command cellserve exposes a fleet dataset over HTTP: the JSON query
// API, the canonical figures/claims documents, and a minimal dashboard
// page — the centralized-analysis service a deployment would put in
// front of the collected dataset.
//
// Two modes:
//
//   - Snapshot mode (default): load a run directory (cellsim -o, or a
//     collector's -store-dir, opened read-only), compute one fused engine
//     pass at startup, serve the precomputed figures.
//
//   - Live mode (-live): start an in-process upload collector and feed
//     the streaming analysis engine from its admit path; /api/live/*
//     serves figures and claims that update while devices are still
//     uploading. After the fleet drains, /api/live/figures is
//     byte-identical to `cellanalyze -figures-json` over the collected
//     dataset (the streaming=batch contract).
//
// The process also exports its runtime metrics (fleet, trace, analysis,
// and monitor families) at /metrics in Prometheus text exposition
// (append ?format=json for the JSON dump), and -pprof additionally
// mounts the net/http/pprof profiling handlers under /debug/pprof/.
//
// Usage:
//
//	cellserve -in run -listen 127.0.0.1:8080
//	cellserve -live -collector 127.0.0.1:9230 -context run
//	cellserve -live -fleet 3 -store-dir fleet-store -ring-seed 7
//	curl localhost:8080/api/stats
//	curl localhost:8080/api/live/figures
//	curl localhost:8080/metrics
package main

import (
	"flag"
	"fmt"
	"html/template"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trace/ring"
)

var page = template.Must(template.New("index").Parse(`<!doctype html>
<title>cellrel dashboard</title>
<style>body{font-family:monospace;margin:2em}td,th{padding:2px 12px;text-align:right}</style>
<h1>cellrel — cellular reliability dashboard</h1>
<p>{{.Events}} failures from {{.Devices}} devices ({{.Prevalence}} prevalence, {{.Frequency}} failures/phone)</p>
<h2>By kind</h2>
<table><tr><th>kind</th><th>events</th></tr>
{{range .Kinds}}<tr><td>{{.Name}}</td><td>{{.N}}</td></tr>{{end}}</table>
<h2>By ISP</h2>
<table><tr><th>ISP</th><th>prevalence</th><th>frequency</th></tr>
{{range .ISPs}}<tr><td>{{.Name}}</td><td>{{printf "%.1f%%" .Prev}}</td><td>{{printf "%.1f" .Freq}}</td></tr>{{end}}</table>
<p>JSON API: <a href="/api/stats">/api/stats</a> · <a href="/api/by-model">/api/by-model</a> ·
<a href="/api/by-isp">/api/by-isp</a> · <a href="/api/events?limit=20">/api/events</a> ·
<a href="/api/digest">/api/digest</a> · <a href="/metrics">/metrics</a></p>
`))

func main() {
	log.SetFlags(0)
	var (
		inPath      = flag.String("in", "run", "input run directory (cellsim -o, or a collector's -store-dir)")
		listen      = flag.String("listen", "127.0.0.1:8080", "listen address")
		withPprof   = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		live        = flag.Bool("live", false, "run an in-process upload collector and serve live streaming figures instead of a snapshot")
		colListen   = flag.String("collector", "127.0.0.1:9230", "upload collector listen address (live mode)")
		storeDir    = flag.String("store-dir", "", "segment store directory for the live collector (live mode; empty: in-memory only)")
		ctxPath     = flag.String("context", "", "run directory whose context file provides population/dwell/transition context for live figures (its events are not read)")
		drainGrace  = flag.Duration("drain-grace", 10*time.Second, "how long in-flight uploads may finish after SIGINT/SIGTERM (live mode)")
		liveBuckets = flag.Int("live-buckets", 0, "sliding-window bucket count (0: default 60)")
		liveBucket  = flag.Duration("live-bucket", 0, "sliding-window bucket width in virtual time (0: default 1h)")
		fleetN      = flag.Int("fleet", 0, "run N >= 2 store-backed collectors behind a consistent-hash ring instead of one (live mode; requires -store-dir; 0 and 1: one collector on -collector)")
		ringSeed    = flag.Int64("ring-seed", 0, "consistent-hash ring seed for -fleet")
	)
	flag.Parse()

	if *live {
		runLive(*listen, *colListen, *storeDir, *ctxPath, *drainGrace, *liveBuckets, *liveBucket, *withPprof, *fleetN, *ringSeed)
		return
	}

	res, err := fleet.LoadResult(*inPath)
	if err != nil {
		log.Fatalf("cellserve: %v", err)
	}
	in := analysis.FromResult(res)
	res.Dataset.ExposeSize()

	// One fused engine pass at startup; request handlers only render the
	// precomputed figures instead of rescanning the dataset per hit.
	pass := analysis.NewPass(in)
	f3 := pass.Figure3()
	type kindRow struct {
		Name string
		N    int
	}
	kinds := map[failure.Kind]int{}
	res.Dataset.Each(func(e *failure.Event) { kinds[e.Kind]++ })
	var kindRows []kindRow
	for k := failure.Kind(0); k < failure.NumKinds; k++ {
		if kinds[k] > 0 {
			kindRows = append(kindRows, kindRow{k.String(), kinds[k]})
		}
	}
	type ispRow struct {
		Name       string
		Prev, Freq float64
	}
	var ispRows []ispRow
	for _, g := range pass.ByISP() {
		ispRows = append(ispRows, ispRow{g.Name, g.Prevalence * 100, g.Frequency})
	}

	mux := http.NewServeMux()
	trace.NewQueryAPI(res.Dataset).Routes(mux)
	mux.Handle("/metrics", metrics.Handler())
	if *withPprof {
		metrics.RegisterPprof(mux)
	}

	// Canonical figure/claims documents, rendered once at startup — the
	// same bytes `cellanalyze -figures-json`/`-claims-json` writes.
	figuresJSON, err := pass.FiguresJSON(core.Catalogue())
	if err != nil {
		log.Fatalf("cellserve: figures: %v", err)
	}
	claimsJSON, err := pass.ClaimsJSON()
	if err != nil {
		log.Fatalf("cellserve: claims: %v", err)
	}
	serveRaw := func(b []byte) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(b)
		}
	}
	mux.HandleFunc("/api/figures", serveRaw(figuresJSON))
	mux.HandleFunc("/api/claims", serveRaw(claimsJSON))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		page.Execute(w, map[string]any{
			"Events":     res.Dataset.Len(),
			"Devices":    res.Population.Total,
			"Prevalence": fmt.Sprintf("%.1f%%", (1-f3.ZeroShare)*100),
			"Frequency":  fmt.Sprintf("%.1f", f3.Mean),
			"Kinds":      kindRows,
			"ISPs":       ispRows,
		})
	})
	fmt.Printf("cellserve on http://%s (%s: %s)\n", *listen, *inPath, res.Provenance)
	log.Fatal(http.ListenAndServe(*listen, mux))
}

// runLive serves streaming analysis off an in-process upload tier:
// devices (or cellsim shards with -upload) point at it, and every
// admitted batch feeds the live accumulators behind the dedup gate. The
// two modes differ only in how the collectors start; mux assembly, the
// serve loop and the shutdown order are shared.
//
// One collector (-fleet 0 or 1) listens on colAddr. With a store
// directory, admitted batches are crash-durable in it (flat layout) and
// the segment index is queryable at /api/segments while ingest continues.
//
// -fleet N >= 2 (requires -store-dir) runs N store-backed collectors on
// ephemeral ports joined to one consistent-hash ring, all admitting into
// the shared dataset and engine, their stores under storeDir/col-N;
// /api/segments serves the merged union. Point ring-aware uploaders at
// the printed member addresses (Scenario.UploadRouter builds the same
// ring from the same seed and membership).
//
// Either way boot replays the store(s) into the dataset and the
// accumulators before the figures are served.
func runLive(listen, colAddr, storeDir, ctxPath string, drainGrace time.Duration, buckets int, bucket time.Duration, withPprof bool, fleetN int, ringSeed int64) {
	ds := trace.NewDataset()
	ds.ExposeSize()

	in := analysis.LiveInput(ds)
	if ctxPath != "" {
		res, err := fleet.LoadContext(ctxPath)
		if err != nil {
			log.Fatalf("cellserve: context: %v", err)
		}
		in = analysis.FromResult(res)
		in.Dataset = ds
	}
	eng := analysis.NewStreaming(in, analysis.StreamingOptions{
		WindowBuckets: buckets,
		WindowBucket:  bucket,
	})
	replayDs := trace.ReplayInto(ds)
	replay := func(b *trace.Batch) {
		replayDs(b)
		eng.Ingest(b.Events)
	}
	// settleReplay lets the accumulators catch up with a replayed backlog.
	// The hand-off queue is deep enough to hold what replay runs ahead by;
	// had it shed all the same, Sync rebuilds from the dataset. The next
	// Sync is at shutdown: a chunk shed while serving stays out of the
	// live figures until then (/api/live/status reports stale).
	settleReplay := func() {
		if ds.Len() > 0 {
			if err := eng.WaitIdle(time.Minute); err != nil {
				log.Printf("cellserve: live replay: %v", err)
			}
			eng.Sync(in)
			fmt.Printf("replayed %d events from %s\n", ds.Len(), storeDir)
		}
		ds.ExposeSize()
	}

	mux := http.NewServeMux()
	var drain func(time.Duration) error
	closeStores := func() error { return nil }
	if fleetN > 1 {
		if storeDir == "" {
			log.Fatal("cellserve: -fleet requires -store-dir (the fleet is store-backed)")
		}
		fc, err := ring.StartFleet(fleetN, ds, ring.FleetOptions{
			Seed:      ringSeed,
			Dir:       storeDir,
			Collector: trace.CollectorOptions{OnAdmit: eng.Ingest},
			Replay:    replay,
		})
		if err != nil {
			log.Fatalf("cellserve: fleet: %v", err)
		}
		settleReplay()
		trace.NewMergeAPI(fc.Sources).Routes(mux)
		fmt.Printf("cellserve live on http://%s (fleet of %d, ring seed %d)\n", listen, fleetN, ringSeed)
		for i := 0; i < fc.Len(); i++ {
			fmt.Printf("  col-%d on %s\n", i, fc.Addr(i))
		}
		drain = fc.Drain
		closeStores = fc.Close
	} else {
		opt := trace.CollectorOptions{OnAdmit: eng.Ingest}
		if storeDir != "" {
			store, err := trace.OpenSegStore(storeDir, trace.SegStoreOptions{}, replay)
			if err != nil {
				log.Fatalf("cellserve: store: %v", err)
			}
			opt.Store = store
			settleReplay()
			trace.NewStoreAPI(store).Routes(mux)
			closeStores = store.Close
		}
		col, err := trace.NewCollectorWith(colAddr, ds, opt)
		if err != nil {
			log.Fatalf("cellserve: collector: %v", err)
		}
		fmt.Printf("cellserve live on http://%s (collector %s)\n", listen, col.Addr())
		drain = col.Drain
	}

	analysis.NewLiveAPI(eng, core.Catalogue()).Routes(mux)
	trace.NewQueryAPI(ds).Routes(mux)
	mux.Handle("/metrics", metrics.Handler())
	if withPprof {
		metrics.RegisterPprof(mux)
	}
	srv := &http.Server{Addr: listen, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("cellserve: http: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	// Drain the collectors first so every acked batch is stored, settle
	// the streaming side — the final /api/live/figures response equals a
	// batch pass over the drained dataset — then seal the stores: the
	// segment API then provably serves every acknowledged batch.
	if err := drain(drainGrace); err != nil {
		log.Printf("cellserve: drain: %v", err)
	}
	if err := eng.WaitIdle(drainGrace); err != nil {
		log.Printf("cellserve: live: %v", err)
	}
	if eng.Sync(in) {
		log.Printf("cellserve: live: resynced accumulators from dataset")
	}
	if err := closeStores(); err != nil {
		log.Printf("cellserve: store close: %v", err)
	}
	eng.Close()
	srv.Close()
}
