package ring

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// FleetOptions configures StartFleet. Only Dir is required: collectors
// listen on ephemeral localhost ports and stores use their defaults.
type FleetOptions struct {
	// Seed fixes the ring placement (device → collector), so fleet runs
	// are reproducible end to end.
	Seed int64
	// Dir holds one segment store per member, in Dir/col-N, or a fleet of
	// one's in Dir itself (so Dir may be a run directory). Required.
	Dir string
	// Listen is member 0's listen address (default 127.0.0.1:0).
	Listen string
	// Collector is the per-member collector template; Store and Owns are
	// overwritten per member, everything else (OnAdmit, MaxConns, ...)
	// applies to each.
	Collector trace.CollectorOptions
	// Store is the per-member segment-store template.
	Store trace.SegStoreOptions
	// Replay, when set, overrides the boot-replay callback (default:
	// trace.ReplayInto the shared dataset). The ingest node (internal/node)
	// and bench/ use it to also feed the streaming engine during replay.
	// StartFleet replays every member's store at once, so Replay runs on
	// one goroutine per member concurrently and must be safe for that.
	// Each member's batches still reach it in that store's append order;
	// across members they interleave.
	Replay func(*trace.Batch)
}

// member is one collector of the fleet.
type member struct {
	name    string
	dir     string
	col     *trace.Collector
	store   *trace.SegStore // read-write while alive
	adopted *trace.SegStore // read-only reopen of dir after Fail
	alive   bool
}

// FleetCollector runs N store-backed collectors behind one consistent-
// hash router — the multi-collector ingestion tier (DESIGN.md,
// "Multi-collector ingestion tier"). All members publish into one shared
// Dataset, while durability is per member: each acks only after the batch
// is in its own segment store. CollectorOptions.Owns refuses a batch
// routed to the wrong member with a redirect nack instead of storing it
// twice. Fail and Restart kill a member the way SIGKILL would; a failed
// member's sealed segments stay queryable through Sources.
//
// A fleet of one is a lone store-backed collector: the ring hands it every
// device, so it admits without asking the router, and its store lives in
// Dir and is served as one unnamed source, as trace.NewStoreAPI serves a
// lone store.
type FleetCollector struct {
	life    sync.Mutex // serializes Fail and Restart
	mu      sync.Mutex
	opt     FleetOptions
	solo    bool // a fleet of one, which can never gain a member
	ds      *trace.Dataset
	router  *Router
	members []*member
}

// StartFleet opens n store-backed collectors and joins them all to a
// fresh router. Member names are "col-0" … "col-{n-1}"; their stores live
// in opt.Dir/col-N, or in opt.Dir itself for n = 1. Every member's store
// opens, and so replays any existing directory into ds (or opt.Replay),
// at once, one goroutine per member. Only when all have opened do the
// collectors start, in member order, each joining the router once it
// listens: member 0 listens on opt.Listen, and the join order is the
// member order. If any store fails to open, every store that did is
// closed, no collector starts, and the error names the member.
func StartFleet(n int, ds *trace.Dataset, opt FleetOptions) (*FleetCollector, error) {
	if n <= 0 {
		return nil, errors.New("ring: fleet needs at least one collector")
	}
	if opt.Dir == "" {
		return nil, errors.New("ring: FleetOptions.Dir is required")
	}
	if ds == nil {
		return nil, errors.New("ring: nil dataset")
	}
	replay := opt.Replay
	if replay == nil {
		replay = trace.ReplayInto(ds)
	}
	f := &FleetCollector{
		opt:     opt,
		solo:    n == 1,
		ds:      ds,
		router:  NewRouter(opt.Seed, 0),
		members: make([]*member, n),
	}
	for i := range f.members {
		m := &member{name: fmt.Sprintf("col-%d", i), dir: opt.Dir}
		if !f.solo {
			m.dir = filepath.Join(opt.Dir, m.name)
		}
		f.members[i] = m
	}
	err := onMembers(n, func(i int) (err error) {
		m := f.members[i]
		m.store, err = f.open(m, replay)
		return err
	})
	for i := 0; err == nil && i < n; i++ {
		m := f.members[i]
		addr := "127.0.0.1:0"
		if i == 0 && opt.Listen != "" {
			addr = opt.Listen
		}
		if err = f.listen(m, m.store, addr); err == nil {
			// Join only after the collector listens: from the first moment
			// the ring can route a device here, the address accepts
			// connections.
			f.router.Add(m.name, m.col.Addr())
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// onMembers runs do(0) … do(n-1) at once, one goroutine each, and returns
// their errors joined in index order.
func onMembers(n int, do func(i int) error) error {
	errs := make([]error, n)
	stats.OnWorkers(n, func(i int) { errs[i] = do(i) })
	return errors.Join(errs...)
}

// boot opens m's store — replaying the directory into replay, if any —
// and starts m's collector on addr with it.
func (f *FleetCollector) boot(m *member, addr string, replay func(*trace.Batch)) error {
	store, err := f.open(m, replay)
	if err != nil {
		return err
	}
	return f.listen(m, store, addr)
}

// open opens m's segment store, replaying its directory into replay.
func (f *FleetCollector) open(m *member, replay func(*trace.Batch)) (*trace.SegStore, error) {
	store, err := trace.OpenSegStore(m.dir, f.opt.Store, replay)
	if err != nil {
		return nil, fmt.Errorf("ring: fleet member %s: %w", m.name, err)
	}
	return store, nil
}

// listen starts m's collector on addr over store, the store's marks
// serving the dedup gate, and closes the store if it cannot. The bounded
// bind retry is for a restart: the old listener is closed, but the kernel
// may need a beat to release the port.
func (f *FleetCollector) listen(m *member, store *trace.SegStore, addr string) error {
	copt := f.opt.Collector
	copt.Store, copt.Owns = store, nil
	if !f.solo {
		copt.Owns = f.router.Owns(m.name)
	}
	var col *trace.Collector
	var err error
	for attempt := 0; attempt < 200; attempt++ {
		if col, err = trace.NewCollectorWith(addr, f.ds, copt); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		store.Close()
		return fmt.Errorf("ring: fleet member %s: %w", m.name, err)
	}
	f.mu.Lock()
	m.store, m.col, m.alive = store, col, true
	f.mu.Unlock()
	return nil
}

// liveMember returns member i, or why it can be neither failed nor
// restarted.
func (f *FleetCollector) liveMember(i int) (*member, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < 0 || i >= len(f.members) {
		return nil, fmt.Errorf("ring: no fleet member %d", i)
	}
	m := f.members[i]
	if !m.alive {
		return nil, fmt.Errorf("ring: fleet member %s has already failed", m.name)
	}
	return m, nil
}

// Router returns the fleet's router — hand it to uploaders (SetRouter)
// or Scenario.UploadRouter.
func (f *FleetCollector) Router() *Router { return f.router }

// Len returns the member count, dead members included.
func (f *FleetCollector) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Addr returns member i's listen address.
func (f *FleetCollector) Addr(i int) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[i].col.Addr()
}

// OwnerIndex returns the index of the member currently owning device,
// or -1 on an empty ring.
func (f *FleetCollector) OwnerIndex(device uint64) int {
	name, ok := f.router.Owner(device)
	if !ok {
		return -1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, m := range f.members {
		if m.name == name {
			return i
		}
	}
	return -1
}

// alive reports whether member i has not been failed.
func (f *FleetCollector) alive(i int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[i].alive
}

// Fail SIGKILLs member i and runs the takeover sequence (DESIGN.md,
// "Failover sequence"):
//
//  1. Kill the collector and its store: no drain, no seal, no checkpoint.
//  2. Reopen the dead directory read-only; replay rebuilds its acked marks
//     from disk without touching the shared dataset.
//  3. Seed each survivor's store — checkpointed, and the marks its dedup
//     gate reads — with the marks of exactly the devices the post-removal
//     ring hands it, before the routing change is visible: a batch whose
//     ack died with the member is a dedup ack on retry, not a double
//     store.
//  4. Remove the member from the router.
//
// The adopted store stays in Sources, so merged queries keep serving the
// dead member's sealed segments.
func (f *FleetCollector) Fail(i int) error {
	f.life.Lock()
	defer f.life.Unlock()
	m, err := f.liveMember(i)
	if err != nil {
		return err
	}
	if len(f.liveCollectors()) == 1 {
		return errors.New("ring: refusing to fail the last live collector")
	}
	f.mu.Lock()
	m.alive = false
	f.mu.Unlock()

	m.col.Kill()
	m.store.Kill()

	ro := f.opt.Store
	ro.ReadOnly = true
	adopted, err := trace.OpenSegStore(m.dir, ro, nil)
	if err != nil {
		return fmt.Errorf("ring: adopt %s: %w", m.name, err)
	}

	// Plan the takeover on a clone so marks land on the survivors before
	// any uploader can be routed to them for these devices.
	next := f.router.Snapshot()
	next.Remove(m.name)
	perSurvivor := make(map[string]map[uint64]uint64)
	for dev, seq := range adopted.Marks() {
		owner, ok := next.Lookup(dev)
		if !ok {
			break
		}
		marks := perSurvivor[owner]
		if marks == nil {
			marks = make(map[uint64]uint64)
			perSurvivor[owner] = marks
		}
		marks[dev] = seq
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m.adopted = adopted
	for _, o := range f.members {
		if o.alive && len(perSurvivor[o.name]) > 0 {
			if _, err := o.store.SeedMarks(perSurvivor[o.name]); err != nil {
				return fmt.Errorf("ring: seed %s with the marks of %s: %w", o.name, m.name, err)
			}
		}
	}
	f.router.Remove(m.name)
	return nil
}

// Restart SIGKILLs member i as Fail does and reboots it read-write from
// its own directory on the same address (DESIGN.md, "Restart sequence").
// The replay feeds nobody — the shared dataset and OnAdmit's consumer
// already hold every admitted event — and rebuilds the marks the new
// collector's dedup gate reads. The member never leaves the router, and a
// failed member cannot be restarted.
func (f *FleetCollector) Restart(i int) error {
	f.life.Lock()
	defer f.life.Unlock()
	m, err := f.liveMember(i)
	if err != nil {
		return err
	}
	addr := m.col.Addr()
	m.col.Kill()
	m.store.Kill()
	return f.boot(m, addr, nil)
}

// Sources returns every member's queryable store — the live read-write
// store for survivors, the adopted read-only store for failed members —
// in member order. Pass this to trace.NewMergeAPI. A fleet of one's
// source is unnamed, so its index entries carry no collector name.
func (f *FleetCollector) Sources() []trace.StoreSource {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]trace.StoreSource, 0, len(f.members))
	for _, m := range f.members {
		st := m.store
		if !m.alive {
			st = m.adopted
		}
		if st != nil {
			name := m.name
			if f.solo {
				name = ""
			}
			out = append(out, trace.StoreSource{Name: name, Store: st})
		}
	}
	return out
}

// liveCollectors snapshots the collectors of the members that have not
// failed. Restart swaps a member's collector, so callers work on this
// snapshot rather than reading member fields outside the lock.
func (f *FleetCollector) liveCollectors() []*trace.Collector {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*trace.Collector
	for _, m := range f.members {
		if m.alive {
			out = append(out, m.col)
		}
	}
	return out
}

// Drain gracefully drains every live collector at once (grace is shared
// wall-clock, not per member) so in-flight uploads conclude at a batch
// boundary. It returns the members' errors joined in member order.
func (f *FleetCollector) Drain(grace time.Duration) error {
	live := f.liveCollectors()
	return onMembers(len(live), func(i int) error { return live[i].Drain(grace) })
}

// CloseStores seals every live member's store at once (the tail segment
// seals, so the full fleet becomes queryable) without stopping the
// collectors, and returns their errors joined in member order. Call after
// Drain when the run is over and the segments are about to be read back.
// Sources waits for the slowest member's seal, not for their sum.
func (f *FleetCollector) CloseStores() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return onMembers(len(f.members), func(i int) error {
		if m := f.members[i]; m.alive && m.store != nil {
			return m.store.Close()
		}
		return nil
	})
}

// DedupHits sums dedup hits across live members — takeover replays
// surface here on the survivors.
func (f *FleetCollector) DedupHits() int64 { return f.sum((*trace.Collector).DedupHits) }

// Nacks sums connection-cap shed nacks across live members.
func (f *FleetCollector) Nacks() int64 { return f.sum((*trace.Collector).Nacks) }

// Redirects sums wrong-collector redirect nacks across live members.
func (f *FleetCollector) Redirects() int64 { return f.sum((*trace.Collector).Redirects) }

func (f *FleetCollector) sum(count func(*trace.Collector) int64) (n int64) {
	for _, col := range f.liveCollectors() {
		n += count(col)
	}
	return n
}

// Stats sums batches and wire bytes received across live members.
func (f *FleetCollector) Stats() (batches int, rxBytes int64) {
	for _, col := range f.liveCollectors() {
		b, rx := col.Stats()
		batches += b
		rxBytes += rx
	}
	return batches, rxBytes
}

// Close tears the whole fleet down, every member at once: every live
// collector closes (open connections force-closed), every store — live or
// adopted — closes. It returns the members' errors joined in member order.
func (f *FleetCollector) Close() error {
	f.mu.Lock()
	members := append([]*member(nil), f.members...)
	f.mu.Unlock()
	return onMembers(len(members), func(i int) error {
		m := members[i]
		var errs [3]error
		if m.alive && m.col != nil {
			errs[0] = m.col.Close()
		}
		if m.store != nil {
			errs[1] = m.store.Close()
		}
		if m.adopted != nil {
			errs[2] = m.adopted.Close()
		}
		return errors.Join(errs[:]...)
	})
}
