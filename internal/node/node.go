// Package node assembles the ingest tier once: one dataset and one live
// streaming engine behind a fleet of store-backed collectors (a lone
// collector is a fleet of one), its HTTP routes, and the order it boots
// and shuts down in. DESIGN.md ("Ingest node") states both sequences and
// the durability they give.
package node

import (
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/internal/trace/ring"
)

// SettleTimeout bounds the engine's settle (WaitIdle) at boot and at
// shutdown.
const SettleTimeout = time.Minute

// Options configures Start.
type Options struct {
	// Fleet configures the collectors; Fleet.Dir is required, and a fleet
	// of one keeps its store in it directly. The node supplies
	// Fleet.Replay, and Fleet.Collector.OnAdmit, when set, runs after the
	// engine's Ingest on every admitted batch.
	Fleet ring.FleetOptions
	// Collectors is the fleet size (0 means 1).
	Collectors int
	// Context is the figure context of a run whose events are not read;
	// the zero context leaves the denominator-based figures empty.
	Context fleet.Context
	// Streaming configures the live engine.
	Streaming analysis.StreamingOptions
}

// Node is one running ingest tier.
type Node struct {
	ds    *trace.Dataset
	eng   *analysis.Streaming
	fleet *ring.FleetCollector

	shutdown    sync.Once
	shutdownErr error
}

// Start boots a node: every member's store replays into the dataset and
// the engine at once, one goroutine per member, before any member listens,
// and the engine has settled when Start returns. The engine holds the node's figure context from the
// start and it never changes, so a settled engine's figures equal a batch
// pass over the dataset (I5) with no Sync.
func Start(opt Options) (*Node, error) {
	n := &Node{ds: trace.NewDataset()}
	n.eng = analysis.NewStreaming(analysis.Input{Dataset: n.ds, Context: opt.Context}, opt.Streaming)

	// Ingest only enqueues the chunk: uploads never wait on analysis.
	fopt, after := opt.Fleet, opt.Fleet.Collector.OnAdmit
	fopt.Collector.OnAdmit = func(events []failure.Event) {
		n.eng.Ingest(events)
		if after != nil {
			after(events)
		}
	}
	replayDs := trace.ReplayInto(n.ds)
	fopt.Replay = func(b *trace.Batch) {
		replayDs(b)
		n.eng.Ingest(b.Events)
	}
	var err error
	if n.fleet, err = ring.StartFleet(max(1, opt.Collectors), n.ds, fopt); err == nil {
		if err = n.eng.WaitIdle(SettleTimeout); err != nil {
			n.fleet.Close()
		}
	}
	if err != nil {
		n.eng.Close()
		return nil, err
	}
	n.ds.ExposeSize()
	return n, nil
}

// Dataset is the node's dataset: the boot replay, then every admitted batch.
func (n *Node) Dataset() *trace.Dataset { return n.ds }

// Engine is the node's live streaming engine.
func (n *Node) Engine() *analysis.Streaming { return n.eng }

// Fleet is the node's collectors behind their router.
func (n *Node) Fleet() *ring.FleetCollector { return n.fleet }

// Addr is member 0's listen address.
func (n *Node) Addr() string { return n.fleet.Addr(0) }

// Routes mounts the segment API over every member's store (it follows
// restarts and failovers), the dataset query API and the live API on mux.
func (n *Node) Routes(mux *http.ServeMux) {
	trace.NewMergeAPI(n.fleet.Sources).Routes(mux)
	trace.NewQueryAPI(n.ds).Routes(mux)
	analysis.NewLiveAPI(n.eng, core.Catalogue()).Routes(mux)
}

// Shutdown stops the node in order: in-flight uploads get grace to finish
// at a batch boundary, the engine settles, every store seals, and then the
// collectors and the engine close. The engine still renders and the
// sealed segments stay readable afterwards. Later calls return the first
// call's error.
func (n *Node) Shutdown(grace time.Duration) error {
	n.shutdown.Do(func() {
		drain := n.fleet.Drain(grace)
		settle := n.eng.WaitIdle(SettleTimeout)
		seal := n.fleet.CloseStores()
		n.shutdownErr = errors.Join(drain, settle, seal, n.fleet.Close())
		n.eng.Close()
	})
	return n.shutdownErr
}
