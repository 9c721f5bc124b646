package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/trace"
	"repro/internal/trace/ring"
)

// system is the deployed configuration under test, wired the way
// cmd/cellserve -live wires it: store-backed collector(s) acking after the
// durable append, the streaming engine fed from OnAdmit, default
// SegStoreOptions (8 MiB segments, 2 s checkpoint, no fsync per append)
// and StreamingOptions, and one HTTP server with the live, dataset and
// segment APIs. Booting it on a directory that already holds segments is
// the restart path: every frame is replayed into the dataset and the
// engine before the collector listens.
type system struct {
	ds    *trace.Dataset
	in    analysis.Input
	eng   *analysis.Streaming
	store *trace.SegStore      // 1-collector mixes
	col   *trace.Collector     // 1-collector mixes
	fc    *ring.FleetCollector // fleet mixes
	srv   *http.Server
	base  string // http://127.0.0.1:<port>
}

// hooks lets the traced run wrap the two public callbacks the pipeline
// exposes; nil fields leave the deployed wiring untouched.
type hooks struct {
	admit  func(next func([]failure.Event)) func([]failure.Event)
	replay func(next func(*trace.Batch)) func(*trace.Batch)
}

const ringSeed = 7

func startSystem(m mix, ctx analysis.Input, dir string, h hooks) (*system, error) {
	s := &system{ds: trace.NewDataset()}
	s.in = ctx
	s.in.Dataset = s.ds
	s.eng = analysis.NewStreaming(s.in, analysis.StreamingOptions{})

	onAdmit := s.eng.Ingest
	if h.admit != nil {
		onAdmit = h.admit(onAdmit)
	}
	replayDs := trace.ReplayInto(s.ds)
	replay := func(b *trace.Batch) {
		replayDs(b)
		s.eng.Ingest(b.Events)
	}
	if h.replay != nil {
		replay = h.replay(replay)
	}

	mux := http.NewServeMux()
	var err error
	if m.collectors > 1 {
		s.fc, err = ring.StartFleet(m.collectors, s.ds, ring.FleetOptions{
			Seed: ringSeed, Dir: dir,
			Collector: trace.CollectorOptions{OnAdmit: onAdmit},
			Replay:    replay,
		})
		if err != nil {
			s.eng.Close()
			return nil, err
		}
		trace.NewMergeAPI(s.fc.Sources).Routes(mux)
	} else {
		s.store, err = trace.OpenSegStore(dir, trace.SegStoreOptions{}, replay)
		if err != nil {
			s.eng.Close()
			return nil, err
		}
		s.col, err = trace.NewCollectorWith("127.0.0.1:0", s.ds, trace.CollectorOptions{Store: s.store, OnAdmit: onAdmit})
		if err != nil {
			s.store.Close()
			s.eng.Close()
			return nil, err
		}
		trace.NewStoreAPI(s.store).Routes(mux)
	}
	if s.ds.Len() > 0 {
		if err := s.settle(); err != nil {
			s.stop()
			return nil, err
		}
	}
	analysis.NewLiveAPI(s.eng, core.Catalogue()).Routes(mux)
	trace.NewQueryAPI(s.ds).Routes(mux)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) // returns ErrServerClosed once stop closes the server
	return s, nil
}

// settle waits for the engine to apply everything queued and installs the
// final context; a shed chunk is paid for here as a rebuild from the
// dataset. After it the live figures equal a batch pass (I5).
func (s *system) settle() error {
	if err := s.eng.WaitIdle(2 * time.Minute); err != nil {
		return err
	}
	s.eng.Sync(s.in)
	return nil
}

// newUploader returns a v3 uploader for one identity, routed through the
// ring on fleet mixes. FlushThreshold stays out of reach so the generator
// decides frame boundaries with explicit Flush calls it can time.
func (s *system) newUploader(id uint64) *trace.Uploader {
	var u *trace.Uploader
	if s.fc != nil {
		u = trace.NewUploader(s.fc.Router().Target(id), id)
		u.SetRouter(s.fc.Router())
	} else {
		u = trace.NewUploader(s.col.Addr(), id)
	}
	u.FlushThreshold = 1 << 30
	u.SetWiFi(true)
	return u
}

// drain closes the listeners gracefully so every acked frame is stored.
func (s *system) drain() error {
	if s.fc != nil {
		return s.fc.Drain(10 * time.Second)
	}
	return s.col.Drain(10 * time.Second)
}

// sources lists the queryable stores (one per collector).
func (s *system) sources() []trace.StoreSource {
	if s.fc != nil {
		return s.fc.Sources()
	}
	return []trace.StoreSource{{Name: "col-0", Store: s.store}}
}

// closeStores seals every tail segment so the whole store is readable and
// its on-disk size final.
func (s *system) closeStores() error {
	if s.fc != nil {
		return s.fc.CloseStores()
	}
	return s.store.Close()
}

type counters struct {
	batches   int
	rxBytes   int64
	dedupHits int64
	nacks     int64
	redirects int64
}

func (s *system) counters() counters {
	var c counters
	if s.fc != nil {
		c.batches, c.rxBytes = s.fc.Stats()
		c.dedupHits, c.redirects = s.fc.DedupHits(), s.fc.Redirects()
		return c // the fleet does not expose shed nacks; a nack fails its Flush, which the generator counts
	}
	c.batches, c.rxBytes = s.col.Stats()
	c.dedupHits, c.nacks, c.redirects = s.col.DedupHits(), s.col.Nacks(), s.col.Redirects()
	return c
}

// stop tears everything down; safe on a partly built or already stopped
// system.
func (s *system) stop() error {
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
		s.srv = nil
	}
	if s.fc != nil {
		errs = append(errs, s.fc.Close())
		s.fc = nil
	}
	if s.col != nil {
		errs = append(errs, s.col.Close())
		s.col = nil
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
		s.store = nil
	}
	if s.eng != nil {
		s.eng.Close()
		s.eng = nil
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("stop system: %w", err)
	}
	return nil
}

// sideServer serves the segment API the deployed server does not mount on
// this mix, so the traced run can time both on every mix.
type sideServer struct {
	srv  *http.Server
	base string
}

func startSideServer(m mix, sys *system) (*sideServer, error) {
	mux := http.NewServeMux()
	if m.collectors > 1 {
		trace.NewStoreAPI(sys.sources()[0].Store).Routes(mux)
	} else {
		trace.NewMergeAPI(sys.sources).Routes(mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sideServer{srv: &http.Server{Handler: mux}, base: "http://" + ln.Addr().String()}
	go s.srv.Serve(ln)
	return s, nil
}

func (s *sideServer) close() { s.srv.Close() }
