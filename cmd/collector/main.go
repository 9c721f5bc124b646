// Command collector runs the backend trace collector: an ingest node
// (internal/node) of one store-backed collector. It receives v3 frames
// from devices (or cellsim's upload_addr) on -listen, acks each admitted batch
// only after appending it to the segment store in -store-dir, and feeds it
// to the live analysis engine. The store is a run directory: cellanalyze
// reads it, and -store-dir may name a directory cellsim -o wrote
// (`collector -store-dir run` serves a finished run, its figures divided
// by the run context cellsim saved there).
// DESIGN.md, "Ingest node", states the boot order (replay before
// uploads), the shutdown order on SIGINT/SIGTERM (-drain-grace, then
// settle and seal) and the durability model.
//
// -http serves /metrics (?format=json for JSON), /debug/pprof/ with
// -pprof, the segment API (/api/segments, /api/segments/events,
// /api/segments/data), the dataset API (/api/events, /api/digest) and the
// live API (/api/live/{figures,claims,window,status}, /api/stats,
// /api/by-model, /api/by-isp and a dashboard at /). After the drain the
// live figures are byte-identical to `cellanalyze -figures-json` over
// the directory.
//
// Usage:
//
//	collector -listen 127.0.0.1:9230 -store-dir collector-store
//	collector -segment-size 8388608
//	collector -max-conns 512 -read-timeout 90s -drain-grace 10s
//	collector -http 127.0.0.1:9231 -pprof
//	collector -store-dir run
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
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/trace"
	"repro/internal/trace/ring"

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
		liveBuckets = fs.Int("live-buckets", 0, "sliding-window bucket count for live analysis (0: default 60)")
		liveBucket  = fs.Duration("live-bucket", 0, "sliding-window bucket width in virtual time (0: default 1h)")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	opt := node.Options{
		Fleet: ring.FleetOptions{
			Dir:       *storeDir,
			Listen:    *listen,
			Collector: trace.CollectorOptions{MaxConns: *maxConns, ReadTimeout: *readTimeout},
			Store:     trace.SegStoreOptions{SegmentSize: *segSize},
		},
		Streaming: analysis.StreamingOptions{WindowBuckets: *liveBuckets, WindowBucket: *liveBucket},
	}
	// A run directory cellsim wrote carries the context its figures divide
	// by; a collector's own store has none and renders with the zero one.
	res, err := fleet.LoadContext(*storeDir)
	if err != nil {
		return fmt.Errorf("run context: %w", err)
	}
	opt.Context = res.Context
	n, err := node.Start(opt)
	if err != nil {
		return err
	}
	defer n.Shutdown(*drainGrace) // for the error returns below; after the signal it has run, checked
	ds, fc := n.Dataset(), n.Fleet()
	if ds.Len() > 0 {
		fmt.Fprintf(out, "replayed %d events from %s\n", ds.Len(), *storeDir)
	}
	fmt.Fprintf(out, "collector listening on %s, storing segments under %s\n", n.Addr(), *storeDir)

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler())
		if *withPprof {
			metrics.RegisterPprof(mux)
		}
		n.Routes(mux)
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
	err = n.Shutdown(*drainGrace)
	batches, rx := fc.Stats()
	fmt.Fprintf(out, "stored %d events across %d segments (%d batches, ~%d bytes received, %d dedup hits, %d nacks)\n",
		ds.Len(), len(fc.Sources()[0].Store.Segments()), batches, rx, fc.DedupHits(), fc.Nacks())
	return err
}
