// Command collector runs the backend trace collector: a TCP server that
// receives compressed failure-event batches from devices (or cellsim
// shards with -upload), makes every admitted batch crash-durable in an
// append-only segment store before acknowledging it, and feeds it to the
// streaming analysis engine. It is the one command that hosts the ingest
// tier, in the configuration `go run ./bench` measures.
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
// store is a run directory: cellanalyze and cellcheck -in read it
// (read-only, also while the collector runs), and -store-dir may name a
// directory cellsim -o wrote, whose events the collector then serves with
// an empty dedup gate — `collector -store-dir run -live-context run` is
// how a finished run is served. A clean shutdown with no upload leaves
// such a directory's segment files as they were; only the checkpoint is
// rewritten.
//
// A side HTTP listener exports runtime metrics (collector batch/byte
// counters, dataset size, segment-store appends/seals/checkpoints) at
// /metrics in Prometheus text exposition (append ?format=json for the
// JSON dump); -pprof additionally mounts the net/http/pprof handlers
// under /debug/pprof/. The same listener serves the segment store
// read-only: /api/segments (the segment index), /api/segments/events
// (decoded rows from a sealed segment), and /api/segments/data (raw v3
// frames) — all reading immutable sealed files, so queries never block
// ingest — /api/events and /api/digest over the dataset, so the stored
// multiset can be compared across a crash and reboot, and the streaming
// engine's pass: /api/live/figures, /api/live/claims, /api/live/window,
// /api/live/status, the aggregates /api/stats, /api/by-model and
// /api/by-isp, and a dashboard page at / — live figures that, post-drain
// and given the run's context with -live-context, are byte-identical to
// `cellanalyze -figures-json` over the stored events.
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
// boundary; then the store seals its tail segment (removes it, if it
// received no frame) and writes a final checkpoint. A SIGKILL instead
// leaves at most one torn, unacked frame — which boot-time replay
// truncates and the device's retry restores.
//
// Usage:
//
//	collector -listen 127.0.0.1:9230 -store-dir collector-store
//	collector -segment-size 8388608
//	collector -max-conns 512 -read-timeout 90s -drain-grace 10s
//	collector -http 127.0.0.1:9231 -pprof
//	collector -store-dir run -live-context run
//	curl localhost:9231/metrics
//	curl localhost:9231/api/stats
//	curl localhost:9231/api/segments
//	curl localhost:9231/api/live/figures
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/trace"

	// Blank import registers the monitor metric family, so this
	// process's /metrics renders the full catalogue (zero-valued until
	// shards run in-process) and dashboards stay uniform across binaries.
	_ "repro/internal/monitor"
)

// errUsage marks a command line the flag package refused. It has printed
// the reason and the usage by then; main exits 2, as flag.ExitOnError does.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	switch err := run(os.Args[1:], stop, os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		log.Fatalf("collector: %v", err)
	}
}

// run is the whole server: boot from the store, serve until stop delivers,
// shut down in order. Its progress lines go to out.
func run(args []string, stop <-chan os.Signal, out io.Writer) error {
	fs := flag.NewFlagSet("collector", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", "127.0.0.1:9230", "listen address")
		storeDir    = fs.String("store-dir", "collector-store", "segment store directory (created if missing; replayed on boot)")
		segSize     = fs.Int64("segment-size", 0, "bytes after which the active segment seals and a new one opens (0: default 8 MiB)")
		maxConns    = fs.Int("max-conns", 0, "max concurrently served upload connections; excess is shed with a retry-after nack (0: default 256)")
		readTimeout = fs.Duration("read-timeout", 0, "per-read idle deadline on upload connections (0: default 2m)")
		drainGrace  = fs.Duration("drain-grace", 10*time.Second, "how long in-flight uploads may finish after SIGINT/SIGTERM")
		httpAddr    = fs.String("http", "127.0.0.1:9231", "metrics/query HTTP listen address (empty to disable)")
		withPprof   = fs.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/ on the metrics listener")
		liveContext = fs.String("live-context", "", "run directory whose context file feeds denominator-based live figures (its events are not read)")
		liveBuckets = fs.Int("live-buckets", 0, "sliding-window bucket count for live analysis (0: default 60)")
		liveBucket  = fs.Duration("live-bucket", 0, "sliding-window bucket width in virtual time (0: default 1h)")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	// The analysis accumulators are fed straight off the admit path: the
	// hook enqueues the chunk into the engine's bounded queue (32 Ki
	// chunks by default, each an alias of a slice the dataset holds) and
	// returns, so uploads never wait on analysis.
	ds := trace.NewDataset()
	liveIn := analysis.LiveInput(ds)
	if *liveContext != "" {
		res, err := fleet.LoadContext(*liveContext)
		if err != nil {
			return fmt.Errorf("live-context: %w", err)
		}
		liveIn = analysis.FromResult(res)
		liveIn.Dataset = ds
	}
	eng := analysis.NewStreaming(liveIn, analysis.StreamingOptions{
		WindowBuckets: *liveBuckets,
		WindowBucket:  *liveBucket,
	})
	defer eng.Close()

	// Boot-time replay: rebuild the dataset and the streaming accumulators
	// from the store before accepting uploads.
	replayDs := trace.ReplayInto(ds)
	store, err := trace.OpenSegStore(*storeDir, trace.SegStoreOptions{SegmentSize: *segSize}, func(b *trace.Batch) {
		replayDs(b)
		eng.Ingest(b.Events)
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer store.Close() // for the error returns below; shutdown closes it first, checked
	if n := ds.Len(); n > 0 {
		// Settle the replayed backlog; the queue is deep enough to hold
		// what replay runs ahead by, and had it shed all the same, Sync
		// rebuilds the accumulators from the authoritative dataset. The
		// next Sync is at shutdown: until then a chunk shed while serving
		// is missing from the live figures (/api/live/status: stale).
		if err := eng.WaitIdle(time.Minute); err != nil {
			log.Printf("collector: live replay: %v", err)
		}
		eng.Sync(liveIn)
		fmt.Fprintf(out, "replayed %d events from %s\n", n, *storeDir)
	}
	ds.ExposeSize()

	col, err := trace.NewCollectorWith(*listen, ds, trace.CollectorOptions{
		MaxConns:    *maxConns,
		ReadTimeout: *readTimeout,
		Store:       store,
		OnAdmit:     eng.Ingest,
	})
	if err != nil {
		return err
	}
	defer col.Close()
	fmt.Fprintf(out, "collector listening on %s, storing segments under %s\n", col.Addr(), *storeDir)

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler())
		if *withPprof {
			metrics.RegisterPprof(mux)
		}
		trace.NewStoreAPI(store).Routes(mux)
		trace.NewQueryAPI(ds).Routes(mux)
		analysis.NewLiveAPI(eng, core.Catalogue()).Routes(mux)
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("metrics http: %w", err)
		}
		srv := &http.Server{Handler: mux}
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				log.Printf("collector: metrics http: %v", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(out, "metrics on http://%s/metrics, segments on http://%s/api/segments\n", ln.Addr(), ln.Addr())
		fmt.Fprintf(out, "live figures on http://%s/api/live/figures\n", ln.Addr())
	}

	<-stop

	// Shutdown order matters: stop accepting, give in-flight uploads the
	// grace window to conclude at a batch boundary (Drain waits for
	// them), settle the streaming side, and close the store last — the
	// sealed segments then provably contain every acknowledged batch.
	if err := col.Drain(*drainGrace); err != nil {
		log.Printf("collector: drain: %v", err)
	}
	if err := eng.WaitIdle(*drainGrace); err != nil {
		log.Printf("collector: live: %v", err)
	}
	if eng.Sync(liveIn) {
		log.Printf("collector: live: resynced accumulators from dataset")
	}
	err = store.Close()
	batches, rx := col.Stats()
	fmt.Fprintf(out, "stored %d events across %d segments (%d batches, ~%d bytes received, %d dedup hits, %d nacks)\n",
		ds.Len(), len(store.Segments()), batches, rx, col.DedupHits(), col.Nacks())
	if err != nil {
		return fmt.Errorf("store close: %w", err)
	}
	return nil
}
