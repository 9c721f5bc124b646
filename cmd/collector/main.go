// Command collector runs the backend trace collector: a TCP server that
// receives compressed failure-event batches from devices (or cellsim
// shards with -upload) and makes every admitted batch crash-durable in
// an append-only segment store before acknowledging it.
//
// The store lives under -store-dir: admitted batches are appended as v3
// wire frames to fixed-size segment files (rolled at -segment-size,
// sealed segments immutable), with a checkpoint of the seal boundary
// alongside them, rewritten whenever a segment seals.
// On boot the collector replays the store — sealed segments verbatim, a
// torn tail frame truncated away — so a restarted process resumes with
// the full dataset and the dedup marks of everything it ever acked:
// devices retrying batches whose acks were lost by a crash are deduped,
// not double-stored. Acks are written only after the durable append, so
// a batch acknowledged to a device can never be lost by a crash. The
// store is a run directory: cellanalyze, cellserve and cellcheck -in read
// it (read-only, also while the collector runs), and -store-dir may name
// a directory cellsim -o wrote, whose events the collector then serves
// with an empty dedup gate.
//
// A side HTTP listener exports runtime metrics (collector batch/byte
// counters, dataset size, segment-store appends/seals/checkpoints) at
// /metrics in Prometheus text exposition (append ?format=json for the
// JSON dump); -pprof additionally mounts the net/http/pprof handlers
// under /debug/pprof/. The same listener serves the segment store
// read-only: /api/segments (the segment index), /api/segments/events
// (decoded rows from a sealed segment), and /api/segments/data (raw v3
// frames) — all reading immutable sealed files, so queries never block
// ingest — and the dataset query API (/api/stats, /api/digest, ...), so
// the stored multiset can be compared across a crash and reboot. With
// -live, admitted batches additionally feed the streaming analysis
// engine and the listener serves /api/live/figures, /api/live/claims,
// /api/live/window and /api/live/status — live figures that, post-drain,
// are byte-identical to `cellanalyze -figures-json` over the stored
// events.
//
// The collector speaks one wire format, the v3 binary codec (0xA3
// frames: varints, per-frame intern tables, optional gzip). Acks carry
// the batch sequence number, with per-device dedup making retried
// uploads idempotent; a frame in any other format, or without a
// sequence number, drops the connection unacked. Connections read and
// decode in parallel and pass the dedup gate — one lock, held across the
// durable append — one batch at a time. -max-conns bounds concurrent
// uploads; excess connections are shed with a retry-after nack, and
// -read-timeout reclaims connections from silent devices.
//
// On SIGINT/SIGTERM the collector shuts down cleanly: the TCP listener
// closes and in-flight uploads get -drain-grace to finish at a batch
// boundary; then the store seals its tail segment and writes a final
// checkpoint. A SIGKILL instead leaves at most one torn, unacked frame
// — which boot-time replay truncates and the device's retry restores.
//
// Several collectors form an ingestion fleet with -fleet-self and
// -fleet-peers: every member builds the same consistent-hash ring
// (same -ring-seed/-ring-vnodes and membership ⇒ identical placement),
// and each refuses batches from devices the ring assigns elsewhere with
// a wrong-collector redirect nack — ring-aware uploaders re-resolve and
// retry at the owner, so a batch is never stored by two members.
//
// Usage:
//
//	collector -listen 127.0.0.1:9230 -store-dir collector-store
//	collector -segment-size 8388608
//	collector -max-conns 512 -read-timeout 90s -drain-grace 10s
//	collector -http 127.0.0.1:9231 -pprof
//	collector -live -live-context run
//	collector -fleet-self col-0 -fleet-peers col-1=10.0.0.2:9230,col-2=10.0.0.3:9230
//	curl localhost:9231/metrics
//	curl localhost:9231/api/segments
//	curl localhost:9231/api/live/figures
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trace/ring"

	// Blank import registers the monitor metric family, so this
	// process's /metrics renders the full catalogue (zero-valued until
	// shards run in-process) and dashboards stay uniform across binaries.
	_ "repro/internal/monitor"
)

func main() {
	log.SetFlags(0)
	var (
		listen      = flag.String("listen", "127.0.0.1:9230", "listen address")
		storeDir    = flag.String("store-dir", "collector-store", "segment store directory (created if missing; replayed on boot)")
		segSize     = flag.Int64("segment-size", 0, "bytes after which the active segment seals and a new one opens (0: default 8 MiB)")
		maxConns    = flag.Int("max-conns", 0, "max concurrently served upload connections; excess is shed with a retry-after nack (0: default 256)")
		readTimeout = flag.Duration("read-timeout", 0, "per-read idle deadline on upload connections (0: default 2m)")
		drainGrace  = flag.Duration("drain-grace", 10*time.Second, "how long in-flight uploads may finish after SIGINT/SIGTERM")
		httpAddr    = flag.String("http", "127.0.0.1:9231", "metrics/query HTTP listen address (empty to disable)")
		withPprof   = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/ on the metrics listener")
		live        = flag.Bool("live", false, "stream admitted events into live analysis accumulators and serve /api/live/* on the HTTP listener")
		liveContext = flag.String("live-context", "", "run directory whose context file feeds denominator-based live figures (its events are not read)")
		liveBuckets = flag.Int("live-buckets", 0, "sliding-window bucket count for live analysis (0: default 60)")
		liveBucket  = flag.Duration("live-bucket", 0, "sliding-window bucket width in virtual time (0: default 1h)")
		fleetSelf   = flag.String("fleet-self", "", "this collector's fleet member name; enables ring ownership enforcement")
		fleetPeers  = flag.String("fleet-peers", "", "comma-separated name=addr peer list forming the rest of the ring (requires -fleet-self)")
		ringSeed    = flag.Int64("ring-seed", 0, "consistent-hash ring seed; must match across the fleet")
		ringVNodes  = flag.Int("ring-vnodes", 0, "virtual nodes per ring member (0: default; must match across the fleet)")
	)
	flag.Parse()

	ds := trace.NewDataset()
	opt := trace.CollectorOptions{
		MaxConns:    *maxConns,
		ReadTimeout: *readTimeout,
	}

	// Fleet mode: build the shared ring and refuse devices the ring
	// assigns to a peer. Every member must be constructed with the same
	// seed, vnode count, and membership, or placements will disagree.
	if *fleetPeers != "" && *fleetSelf == "" {
		log.Fatal("collector: -fleet-peers requires -fleet-self")
	}
	if *fleetSelf != "" {
		rt := ring.NewRouter(*ringSeed, *ringVNodes)
		rt.Add(*fleetSelf, *listen)
		if *fleetPeers != "" {
			for _, p := range strings.Split(*fleetPeers, ",") {
				name, addr, ok := strings.Cut(strings.TrimSpace(p), "=")
				if !ok || name == "" || addr == "" {
					log.Fatalf("collector: -fleet-peers entry %q: want name=addr", p)
				}
				if name == *fleetSelf {
					continue
				}
				rt.Add(name, addr)
			}
		}
		opt.Owns = rt.Owns(*fleetSelf)
		fmt.Printf("fleet member %q on a %d-member ring (seed %d)\n",
			*fleetSelf, len(rt.Members()), *ringSeed)
	}

	// Live mode feeds the analysis accumulators straight off the admit
	// path: the hook enqueues the chunk into the engine's bounded queue
	// (32 Ki chunks by default, each an alias of a slice the dataset
	// holds) and returns, so uploads never wait on analysis.
	var eng *analysis.Streaming
	liveIn := analysis.LiveInput(ds)
	if *live {
		if *liveContext != "" {
			res, err := fleet.LoadContext(*liveContext)
			if err != nil {
				log.Fatalf("collector: live-context: %v", err)
			}
			liveIn = analysis.FromResult(res)
			liveIn.Dataset = ds
		}
		eng = analysis.NewStreaming(liveIn, analysis.StreamingOptions{
			WindowBuckets: *liveBuckets,
			WindowBucket:  *liveBucket,
		})
		opt.OnAdmit = eng.Ingest
	}

	// Boot-time replay: rebuild the dataset (and, in live mode, the
	// streaming accumulators) from the store before accepting uploads.
	onBatch := trace.ReplayInto(ds)
	if eng != nil {
		replay := onBatch
		onBatch = func(b *trace.Batch) {
			replay(b)
			eng.Ingest(b.Events)
		}
	}
	store, err := trace.OpenSegStore(*storeDir, trace.SegStoreOptions{SegmentSize: *segSize}, onBatch)
	if err != nil {
		log.Fatalf("collector: store: %v", err)
	}
	opt.Store = store
	if eng != nil && ds.Len() > 0 {
		// Settle the replayed backlog; the queue is deep enough to hold
		// what replay runs ahead by, and had it shed all the same, Sync
		// rebuilds the accumulators from the authoritative dataset. The
		// next Sync is at shutdown: until then a chunk shed while serving
		// is missing from the live figures (/api/live/status: stale).
		if err := eng.WaitIdle(time.Minute); err != nil {
			log.Printf("collector: live replay: %v", err)
		}
		eng.Sync(liveIn)
	}
	ds.ExposeSize()
	if n := ds.Len(); n > 0 {
		fmt.Printf("replayed %d events from %s\n", n, *storeDir)
	}

	col, err := trace.NewCollectorWith(*listen, ds, opt)
	if err != nil {
		log.Fatalf("collector: %v", err)
	}
	fmt.Printf("collector listening on %s, storing segments under %s\n", col.Addr(), *storeDir)

	var httpSrv *http.Server
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler())
		if *withPprof {
			metrics.RegisterPprof(mux)
		}
		trace.NewStoreAPI(store).Routes(mux)
		trace.NewQueryAPI(ds).Routes(mux)
		if eng != nil {
			analysis.NewLiveAPI(eng, core.Catalogue()).Routes(mux)
		}
		httpSrv = &http.Server{Addr: *httpAddr, Handler: mux}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("collector: metrics http: %v", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics, segments on http://%s/api/segments\n", *httpAddr, *httpAddr)
		if eng != nil {
			fmt.Printf("live figures on http://%s/api/live/figures\n", *httpAddr)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop

	// Shutdown order matters: stop accepting, give in-flight uploads the
	// grace window to conclude at a batch boundary (Drain waits for
	// them), settle the streaming side, and close the store last — the
	// sealed segments then provably contain every acknowledged batch.
	if err := col.Drain(*drainGrace); err != nil {
		log.Printf("collector: drain: %v", err)
	}
	if eng != nil {
		if err := eng.WaitIdle(*drainGrace); err != nil {
			log.Printf("collector: live: %v", err)
		}
		if eng.Sync(liveIn) {
			log.Printf("collector: live: resynced accumulators from dataset")
		}
	}
	if err := store.Close(); err != nil {
		log.Printf("collector: store close: %v", err)
	}
	batches, rx := col.Stats()
	fmt.Printf("stored %d events across %d segments (%d batches, ~%d bytes received, %d dedup hits, %d nacks)\n",
		ds.Len(), len(store.Segments()), batches, rx, col.DedupHits(), col.Nacks())
	if httpSrv != nil {
		httpSrv.Close()
	}
}
