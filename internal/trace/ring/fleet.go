package ring

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/trace"
)

// FleetOptions configures StartFleet. The zero value works: collectors
// listen on ephemeral localhost ports and stores use their defaults.
type FleetOptions struct {
	// Seed fixes the ring placement (device → collector), so fleet runs
	// are reproducible end to end.
	Seed int64
	// Dir is the root under which each member gets its own segment-store
	// directory (Dir/col-N). Required — the fleet exists to be durable.
	Dir string
	// Collector is the per-member collector template; Store and Owns are
	// overwritten per member, everything else (OnAdmit, MaxConns, ...)
	// applies to each.
	Collector trace.CollectorOptions
	// Store is the per-member segment-store template.
	Store trace.SegStoreOptions
	// Replay, when set, overrides the boot-replay callback (default:
	// trace.ReplayInto the shared dataset). bench/ uses this to also feed
	// the streaming engine during replay.
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
// hash router — the multi-collector ingestion tier. All members publish
// into one shared Dataset (Publish is safe for concurrent use, so admits
// from different collectors need no coordination), while durability is
// per-member: each collector acks only after the batch is in its own
// segment store. Ownership is enforced at admit time via
// CollectorOptions.Owns, so a batch routed to the wrong member — e.g.
// sent moments before its uploader observes a membership change — is
// refused with a redirect nack instead of being stored twice.
//
// Fail kills one member the way SIGKILL would and runs the takeover
// sequence; the dead member's sealed segments stay queryable through
// Sources/MergeAPI via a read-only reopen of its directory. Restart
// kills one the same way and reboots it from its own directory on the
// same address. A fleet of one is a lone store-backed collector: the
// ring hands it every device.
type FleetCollector struct {
	life    sync.Mutex // serializes Fail and Restart
	mu      sync.Mutex
	opt     FleetOptions
	ds      *trace.Dataset
	router  *Router
	members []*member
}

// StartFleet opens n store-backed collectors (replaying any existing
// per-member directories into ds first) and joins them all to a fresh
// router. Member names are "col-0" … "col-{n-1}"; their stores live in
// opt.Dir/col-N.
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
		opt:    opt,
		ds:     ds,
		router: NewRouter(opt.Seed, 0),
	}
	for i := 0; i < n; i++ {
		m := &member{
			name: fmt.Sprintf("col-%d", i),
			dir:  filepath.Join(opt.Dir, fmt.Sprintf("col-%d", i)),
		}
		if err := f.boot(m, "127.0.0.1:0", replay); err != nil {
			f.Close()
			return nil, err
		}
		f.members = append(f.members, m)
		// Join only after the collector listens: from the first moment the
		// ring can route a device here, the address accepts connections.
		f.router.Add(m.name, m.col.Addr())
	}
	return f, nil
}

// boot opens m's store — replaying the directory into replay, if any —
// and starts m's collector on addr with it, the store's marks seeding
// the dedup gate. The bounded bind retry is for a restart: the old
// listener is closed, but the kernel may need a beat to release the port.
func (f *FleetCollector) boot(m *member, addr string, replay func(*trace.Batch)) error {
	store, err := trace.OpenSegStore(m.dir, f.opt.Store, replay)
	if err != nil {
		return fmt.Errorf("ring: fleet member %s: %w", m.name, err)
	}
	copt := f.opt.Collector
	copt.Store = store
	copt.Owns = f.router.Owns(m.name)
	var col *trace.Collector
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

// Alive reports whether member i has not been failed.
func (f *FleetCollector) Alive(i int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[i].alive
}

// Fail SIGKILLs member i and runs the takeover sequence:
//
//  1. Kill the collector and its store — no drain, no seal, no final
//     checkpoint; in-flight appends fail unacked, exactly like process
//     death.
//  2. Reopen the dead directory read-only. Replay rebuilds the dead
//     member's acked high-water marks from disk truth (a torn tail
//     frame is skipped — it was never acked, the device's retry
//     restores it elsewhere) without touching the shared dataset: every
//     admitted event is already there.
//  3. Seed the survivors' dedup gates with those marks *before* the
//     routing change is visible, each survivor getting the marks of
//     exactly the devices the post-removal ring hands it. A device
//     whose batch was durable on the dead member but whose ack died
//     with it will retry that same sequence number at its new owner —
//     the seeded mark turns that retry into a dedup ack instead of a
//     double store. Each survivor checkpoints the marks it inherits
//     into its own store before SeedMarks returns, so they survive its
//     Restart and pass on to the next heir if it fails in turn; a seed
//     that cannot be persisted fails the takeover.
//  4. Remove the member from the router. Uploaders re-resolve on their
//     next send and land on the survivors; a stale send racing the
//     change gets a wrong-collector redirect from the Owns gate.
//
// The adopted read-only store remains registered in Sources, so merged
// queries keep serving the dead member's sealed segments.
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
			if _, err := o.col.SeedMarks(perSurvivor[o.name]); err != nil {
				return fmt.Errorf("ring: seed %s with the marks of %s: %w", o.name, m.name, err)
			}
		}
	}
	f.router.Remove(m.name)
	return nil
}

// Restart SIGKILLs member i and reboots it from its own directory on the
// address it was listening on — the single-process crash/recovery cycle:
//
//  1. Kill the collector, then its store, as in Fail: the collector's
//     wait lets in-flight admits finish, so the shared dataset holds what
//     the directory holds when the file handle closes.
//  2. Reopen the directory read-write. Replay truncates a torn tail frame
//     and rebuilds the acked marks from disk; it feeds nobody — the shared
//     dataset and OnAdmit's consumer already hold every admitted event
//     and live on across the restart.
//  3. Listen on the same address with the reopened store, whose marks
//     seed the new dedup gate: a batch stored before the kill whose ack
//     died with it is a dedup ack on retry, not a second store.
//
// The member never leaves the router: its devices ride the outage on
// backoff and WAL retries, and nobody reroutes. A failed member cannot
// be restarted — its devices and marks have moved to the survivors.
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
// in member order. Pass this to trace.NewMergeAPI.
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
			out = append(out, trace.StoreSource{Name: m.name, Store: st})
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

// Drain gracefully drains every live collector (in parallel; grace is
// shared wall-clock, not per member) so in-flight uploads conclude at a
// batch boundary.
func (f *FleetCollector) Drain(grace time.Duration) error {
	live := f.liveCollectors()
	errc := make(chan error, len(live))
	for _, col := range live {
		go func(col *trace.Collector) { errc <- col.Drain(grace) }(col)
	}
	var err error
	for range live {
		if e := <-errc; e != nil && err == nil {
			err = e
		}
	}
	return err
}

// CloseStores seals every live member's store (the tail segment seals,
// so the full fleet becomes queryable) without stopping the collectors.
// Call after Drain when the run is over and the segments are about to
// be read back.
func (f *FleetCollector) CloseStores() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	for _, m := range f.members {
		if m.alive && m.store != nil {
			if e := m.store.Close(); e != nil && err == nil {
				err = e
			}
		}
	}
	return err
}

// DedupHits sums dedup hits across live members — takeover replays
// surface here on the survivors.
func (f *FleetCollector) DedupHits() (n int64) {
	for _, col := range f.liveCollectors() {
		n += col.DedupHits()
	}
	return n
}

// Redirects sums wrong-collector redirect nacks across live members.
func (f *FleetCollector) Redirects() (n int64) {
	for _, col := range f.liveCollectors() {
		n += col.Redirects()
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

// Close tears the whole fleet down: every live collector closes (open
// connections force-closed), every store — live or adopted — closes.
func (f *FleetCollector) Close() error {
	f.mu.Lock()
	members := append([]*member(nil), f.members...)
	f.mu.Unlock()
	var err error
	for _, m := range members {
		if m.alive && m.col != nil {
			if e := m.col.Close(); e != nil && err == nil {
				err = e
			}
		}
		if m.store != nil {
			if e := m.store.Close(); e != nil && err == nil {
				err = e
			}
		}
		if m.adopted != nil {
			if e := m.adopted.Close(); e != nil && err == nil {
				err = e
			}
		}
	}
	return err
}
