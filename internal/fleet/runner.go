package fleet

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/android"
	"repro/internal/device"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/geo"
	"repro/internal/monitor"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telephony"
	"repro/internal/trace"
)

// Run executes a fleet scenario and returns the collected dataset and
// aggregates. Devices are sharded across workers, each with its own
// discrete-event clock and RNG stream.
//
// Each worker simulates its contiguous device range as a sequence of
// independent lanes: one device at a time on one reused scheduler, RNG
// source, and scratch arena. Device streams are keyed by device index, so
// a device draws the same sequence whichever worker runs it, and the
// canonical merge makes the dataset's events and their order independent
// of worker count, as are the integer aggregates. The Dwell float sums are
// not: each worker adds up its own devices before Run adds the workers'
// totals, so their last bits follow the worker count (see DESIGN.md).
func Run(s Scenario) (*Result, error) {
	runStart := time.Now()
	defer func() { mRunSeconds.Observe(time.Since(runStart).Seconds()) }()
	s = s.withDefaults()
	netRng := rng.New(s.Seed)
	network, err := simnet.Generate(simnet.DefaultDeployment(s.NumBS), netRng.Split("deployment"))
	if err != nil {
		return nil, fmt.Errorf("fleet: generate deployment: %w", err)
	}
	dataset := trace.NewDataset()
	refMass := estimateClassMasses(network, s)

	// Compile the fault campaign against the generated deployment. The
	// injector is read-only after compilation and shared by every shard;
	// its station selection draws from (seed, rule name) streams, so the
	// same campaign darkens the same stations for any worker count.
	inj, err := faultinject.Compile(s.Faults, network.Stations, s.Seed)
	if err != nil {
		return nil, fmt.Errorf("fleet: compile fault campaign: %w", err)
	}

	workers := s.Workers
	if workers > s.NumDevices {
		workers = s.NumDevices
	}
	if workers < 1 {
		workers = 1
	}
	outs := make([]shardOut, workers)
	stats.OnWorkers(workers, func(w int) {
		lo, hi := s.NumDevices*w/workers, s.NumDevices*(w+1)/workers
		outs[w] = runShardLanes(&s, refMass, network, inj, w, lo, hi)
	})

	res := &Result{Scenario: s, Dataset: dataset, Network: network}
	var cpuSum float64
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return nil, o.err
		}
		res.Population.Add(&o.state.pop)
		res.Transitions.Add(&o.state.trans)
		res.Dwell.Add(&o.state.dwell)
		res.Integrity.Add(&o.integrity)
		res.Monitor.Add(&o.mon)
		res.Overhead.Devices += o.overhead.Devices
		cpuSum += float64(o.overhead.MeanCPUUtilization * float64(o.overhead.Devices)) // no FMA
		if o.overhead.MaxCPUUtilization > res.Overhead.MaxCPUUtilization {
			res.Overhead.MaxCPUUtilization = o.overhead.MaxCPUUtilization
		}
		if o.overhead.MaxMemoryBytes > res.Overhead.MaxMemoryBytes {
			res.Overhead.MaxMemoryBytes = o.overhead.MaxMemoryBytes
		}
		if o.overhead.MaxStorageBytes > res.Overhead.MaxStorageBytes {
			res.Overhead.MaxStorageBytes = o.overhead.MaxStorageBytes
		}
		if o.overhead.MaxNetworkBytes > res.Overhead.MaxNetworkBytes {
			res.Overhead.MaxNetworkBytes = o.overhead.MaxNetworkBytes
		}
		res.Overhead.TotalNetworkBytes += o.overhead.TotalNetworkBytes
		res.RecordedDigest.Add(o.recordedDigest)
		res.RecordedEvents += o.recordedEvents
	}
	if res.Overhead.Devices > 0 {
		res.Overhead.MeanCPUUtilization = cpuSum / float64(res.Overhead.Devices)
	}
	if s.UploadAddr == "" && s.UploadRouter == nil {
		publishMerged(dataset, outs)
	}
	res.Faults = inj.Report()
	return res, nil
}

// shardOut is one worker's harvest.
type shardOut struct {
	state     *shardState
	mon       monitor.Stats
	overhead  OverheadSummary
	integrity IntegrityReport
	// events is the worker's buffered event output (direct-append runs
	// only), sorted by the canonical (Start, DeviceID, record index) key;
	// Run merges the workers' streams into the shared dataset.
	events []failure.Event
	// recordedDigest/recordedEvents summarize the events this shard's
	// devices recorded, accumulated before the uploader (and any injected
	// network fault) touches them — the ground truth side of invariant I4.
	recordedDigest trace.Digest
	recordedEvents int64
	err            error
}

// shardIO is the event-delivery half of a worker: events either buffer
// locally (sortCanonical then merged by Run) or stream to a TCP uploader.
type shardIO struct {
	buffer   []failure.Event
	uploader *trace.Uploader
}

// setup wires the worker's sink into state. The sink wrapper bumps the
// fleet-wide event counter; it is a bare atomic add, so the hot path stays
// allocation-free and shard determinism is untouched.
func (sio *shardIO) setup(s *Scenario, state *shardState, inj *faultinject.Injector, lo int, out *shardOut) error {
	if s.UploadAddr != "" || s.UploadRouter != nil {
		// A router resolves the initial target per device and keeps
		// re-resolving across membership changes; a bare UploadAddr pins
		// one collector for the whole run.
		addr := s.UploadAddr
		if s.UploadRouter != nil {
			addr = s.UploadRouter.Target(uint64(lo))
		}
		sio.uploader = trace.NewUploader(addr, uint64(lo))
		if s.UploadRouter != nil {
			sio.uploader.SetRouter(s.UploadRouter)
		}
		// Short, seeded backoff: the collector is local, so retries are
		// cheap; the jitter stream is split per shard so retry timing never
		// couples shards (and cannot perturb the simulation, which runs on
		// its own virtual clock).
		sio.uploader.SetBackoff(2*time.Millisecond, 50*time.Millisecond,
			rng.SplitIndexed(s.Seed, "uploader-backoff", lo))
		if s.UploadBufferLimit > 0 {
			sio.uploader.BufferLimit = s.UploadBufferLimit
		}
		if s.UploadSpillDir != "" {
			if err := sio.uploader.EnableSpill(s.UploadSpillDir); err != nil {
				return fmt.Errorf("fleet: enable upload spill: %w", err)
			}
		}
		if inj.HasNetworkFaults() {
			sio.uploader.SetChaos(inj)
		}
	}
	state.sink = func(e failure.Event) {
		mEvents.Inc()
		if sio.uploader != nil {
			// Digest before upload: this is what the device observed, the
			// reference the collector's dataset must reproduce exactly.
			out.recordedDigest.Add(trace.EventDigest(&e))
			out.recordedEvents++
			sio.uploader.Record(e)
			return
		}
		if len(sio.buffer) == cap(sio.buffer) {
			// Double: append grows a large slice by a quarter, copying a
			// worker's buffer about five times over.
			sio.buffer = slices.Grow(sio.buffer, len(sio.buffer)+1)
		}
		sio.buffer = append(sio.buffer, e)
	}
	return nil
}

// finish flushes the uploader (with retries) or sorts the local buffer
// into canonical order for Run's cross-worker merge.
func (sio *shardIO) finish(inj *faultinject.Injector, out *shardOut) {
	if sio.uploader == nil {
		sortCanonical(sio.buffer)
		out.events = sio.buffer
		return
	}
	sio.uploader.SetWiFi(true)
	// The end-of-shard flush is the one upload that must not be lost;
	// retry transient collector failures before surfacing the error,
	// counting retries for the dashboard. Under an injected network
	// fault campaign every attempt can fail with high probability, so
	// the budget rises accordingly — at-least-once is only as good as
	// the sender's persistence, and the collector dedups the rest.
	attempts := shardFlushAttempts
	if inj.HasNetworkFaults() {
		attempts = shardFlushAttemptsChaos
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			mUploadRetries.Inc()
			if d := sio.uploader.RetryDelay(); d > 0 {
				time.Sleep(d)
			} else {
				time.Sleep(time.Duration(attempt) * 100 * time.Millisecond)
			}
		}
		if err = sio.uploader.Flush(); err == nil {
			break
		}
	}
	if err != nil {
		out.err = fmt.Errorf("fleet: upload shard events: %w", err)
	}
}

// modelPick draws a device model by its user share.
var modelPick = func() *rng.Categorical {
	models := device.Models()
	ws := make([]float64, len(models))
	for i, m := range models {
		ws[i] = m.UserShare
	}
	return rng.NewCategorical(ws)
}()

// runShardLanes simulates devices [lo, hi) one at a time, reusing a single
// scheduler, RNG source, and scratch arena across the whole range. Each
// device's plan, candidate buffers and retry counts live in recycled lane
// storage, its timers are re-armed in place and its callbacks are bound
// once, so what a device allocates is a fixed set of objects built with
// it: at bench size (seed 11, 10 k devices, 72 h) fleet.Run makes 1.5
// allocations per recorded event, its one-off set-up included
// (TestRunAllocsPerEvent holds the lane to its budget). shard is the
// worker index, used only as a metrics label.
func runShardLanes(s *Scenario, refMass map[classKey]classMass, network *simnet.Network, inj *faultinject.Injector, shard, lo, hi int) (out shardOut) {
	shardStart := time.Now()
	mShardsStarted.Inc()
	mShardsActive.Add(1)
	defer func() {
		mShardsActive.Add(-1)
		mShardsDone.Inc()
		mShardSeconds.Observe(time.Since(shardStart).Seconds())
	}()

	clock := simclock.NewScheduler()
	state := &shardState{refMass: refMass}
	out.state = state
	var sio shardIO
	if err := sio.setup(s, state, inj, lo, &out); err != nil {
		out.err = err
		return out
	}
	if sio.uploader != nil {
		defer sio.uploader.Close()
	}

	depth := mQueueDepth.With(strconv.Itoa(shard))
	scr := newLaneScratch()
	r := rng.New(0)
	models := device.Models()
	// Run the window plus slack for in-flight episodes to conclude.
	until := s.Window + 2*time.Hour
	var executed int
	for i := lo; i < hi; i++ {
		r.Reseed(rng.IndexedSeed(s.Seed, "device", i))
		m := models[modelPick.Draw(r)]
		a := newActor(uint64(i+1), m, clock, r, s, network, state, inj, scr)
		// The gauge tracks the lane's plan backlog: with one device per
		// queue it peaks right after planning.
		depth.Set(float64(clock.QueueLen()))
		executed += clock.Run(until)
		harvestActor(a, &out)
		mDevices.Inc()
		clock.Reset()
	}
	mSimEvents.Add(int64(executed))
	depth.Set(0)
	if out.overhead.Devices > 0 {
		out.overhead.MeanCPUUtilization /= float64(out.overhead.Devices)
	}
	sio.finish(inj, &out)
	return out
}

// harvestActor folds one finished device into the worker's aggregates:
// state-machine integrity, monitor statistics, and overhead accounting.
// MeanCPUUtilization accumulates a sum here; callers divide by Devices.
func harvestActor(a *actor, out *shardOut) {
	switch a.dc.State() {
	case android.DcInactive, android.DcActive:
	default:
		out.integrity.Wedged++
	}
	if a.inSetup {
		out.integrity.OpenSetups++
	}
	if a.busy {
		out.integrity.OpenEpisodes++
	}
	o := a.mon.Overhead()
	st := a.mon.Stats()
	out.mon.Add(&st)
	out.overhead.Devices++
	out.overhead.MeanCPUUtilization += o.CPUUtilization()
	if u := o.CPUUtilization(); u > out.overhead.MaxCPUUtilization {
		out.overhead.MaxCPUUtilization = u
	}
	if o.MemoryPeakBytes > out.overhead.MaxMemoryBytes {
		out.overhead.MaxMemoryBytes = o.MemoryPeakBytes
	}
	if o.StorageBytes > out.overhead.MaxStorageBytes {
		out.overhead.MaxStorageBytes = o.StorageBytes
	}
	if o.NetworkBytes > out.overhead.MaxNetworkBytes {
		out.overhead.MaxNetworkBytes = o.NetworkBytes
	}
	out.overhead.TotalNetworkBytes += o.NetworkBytes
}

// sortCanonical orders a worker's buffered events by the canonical merge
// key: virtual start time, then device ID, then per-device record index.
// The buffer must already be in device order (DeviceID never decreasing),
// each device's events in its recording order — a lane's buffer always
// is: it simulates its range one device after another, and a device
// records all of its events during its own clock.Run. A stable sort on
// Start alone then realizes the full key without storing device IDs or
// record indices. The key is a strict total order independent of how
// devices were partitioned across workers — the foundation of the
// worker-count-independent dataset ORDER contract (see DESIGN.md).
//
// The sort is a stable least-significant-digit radix sort of 16-byte
// (key, buffer index) pairs on Start with the sign bit flipped, so that
// negative times order first; every digit on which all keys agree is
// skipped. The permutation is then applied in place by following its
// cycles, so the extra memory is the pairs and not a second event array.
func sortCanonical(events []failure.Event) {
	if len(events) < 2 {
		return
	}
	keys := make([]radixKey, len(events))
	for i := range keys {
		keys[i] = radixKey{uint64(events[i].Start) ^ 1<<63, i}
	}
	keys = radixSort(keys)
	// Position i takes the event at keys[i].src. Each cycle of that
	// permutation is rotated through one saved event; a settled position
	// is marked by pointing its key at itself.
	for i := range keys {
		if keys[i].src == i {
			continue
		}
		first := events[i]
		j := i
		for src := keys[j].src; src != i; src = keys[j].src {
			events[j] = events[src]
			keys[j].src = j
			j = src
		}
		events[j] = first
		keys[j].src = j
	}
}

// radixKey is one sort key and the buffer index of the event it came from.
type radixKey struct {
	key uint64
	src int
}

// radixBits is the width of one radix digit. Bench-size lanes span about
// 2⁴⁸ ns of Start, which 12-bit digits cover in four passes.
const (
	radixBits    = 12
	radixDigits  = (64 + radixBits - 1) / radixBits
	radixBuckets = 1 << radixBits
)

// radixSort stably sorts keys by key, one radixBits digit per pass from the
// least significant, scattering between keys and a spare slice of their
// length. A digit on which every key agrees takes no pass. It returns the
// sorted slice, which is keys or the spare.
func radixSort(keys []radixKey) []radixKey {
	var varies uint64
	for _, k := range keys {
		varies |= k.key ^ keys[0].key
	}
	var shifts []uint
	for d := 0; d < radixDigits; d++ {
		if varies>>(d*radixBits)&(radixBuckets-1) != 0 {
			shifts = append(shifts, uint(d*radixBits))
		}
	}
	if len(shifts) == 0 {
		return keys
	}
	spare := make([]radixKey, len(keys))
	counts := make([][radixBuckets]int, len(shifts))
	for _, k := range keys {
		for d, sh := range shifts {
			counts[d][k.key>>sh&(radixBuckets-1)]++
		}
	}
	for d, sh := range shifts {
		next := &counts[d]
		at := 0
		for b, c := range next {
			next[b] = at
			at += c
		}
		for _, k := range keys {
			b := k.key >> sh & (radixBuckets - 1)
			spare[next[b]] = k
			next[b]++
		}
		keys, spare = spare, keys
	}
	return keys
}

// publishMerged k-way-merges the workers' canonically sorted event streams
// into one exact-size array and publishes it to the dataset as one
// zero-copy segment. Workers own disjoint device ranges, so (Start,
// DeviceID) never ties across streams and the merge is a strict total
// order: the dataset's iteration order is byte-identical for any worker
// count.
func publishMerged(dataset *trace.Dataset, outs []shardOut) {
	total := 0
	for i := range outs {
		total += len(outs[i].events)
	}
	if total == 0 {
		return
	}
	merged := make([]failure.Event, 0, total)
	heads := make([]int, len(outs))
	for len(merged) < total {
		best := -1
		for w := range outs {
			if heads[w] >= len(outs[w].events) {
				continue
			}
			if best < 0 {
				best = w
				continue
			}
			a, b := &outs[w].events[heads[w]], &outs[best].events[heads[best]]
			if a.Start < b.Start || (a.Start == b.Start && a.DeviceID < b.DeviceID) {
				best = w
			}
		}
		merged = append(merged, outs[best].events[heads[best]])
		heads[best]++
	}
	dataset.Publish(merged)
}

// shardFlushAttempts bounds the end-of-shard upload retry loop;
// shardFlushAttemptsChaos is the budget under an injected network-fault
// campaign, where individual attempts are expected to fail.
const (
	shardFlushAttempts      = 3
	shardFlushAttemptsChaos = 200
)

// classMass carries the expected transition hazard mass per device class:
// total over all transitions, and the "risky" portion whose destination
// signal level is 0 or 1 (the avoidable cases of Figure 17).
type classMass struct {
	total, risky float64
}

// massClasses are the device classes estimateClassMasses covers.
var massClasses = [...]classKey{
	{fiveG: false, android9: true},
	{fiveG: false, android9: false},
	{fiveG: true, android9: false},
}

// estimateClassMasses Monte-Carlo-estimates, per device class, the expected
// hazard mass of RAT transitions accumulated over one device's dwell chain
// under the *vanilla* policy. This converts the paper's transition-failure
// shares into per-transition probability constants that are properties of
// the environment, independent of the deployed policy — so the patched
// policy's avoidance of hazardous transitions genuinely removes failures.
// Each class draws from its own stream, so the classes run concurrently.
func estimateClassMasses(network *simnet.Network, s Scenario) map[classKey]classMass {
	var masses [len(massClasses)]classMass
	stats.OnWorkers(len(massClasses), func(i int) {
		masses[i] = estimateClassMass(network, &s, massClasses[i])
	})
	out := make(map[classKey]classMass, len(massClasses))
	for i, class := range massClasses {
		out[class] = masses[i]
	}
	return out
}

// estimateClassMass is one class's estimate: the mean hazard mass over 400
// dwell chains drawn from the class's own (seed, "class-mass") stream.
func estimateClassMass(network *simnet.Network, s *Scenario, class classKey) classMass {
	const chains = 400
	k := s.Calibration.DwellSamples
	if k < 2 {
		k = 2
	}
	var pol android.RATPolicy = android.Android10Policy{}
	if class.android9 {
		pol = android.Android9Policy{}
	}
	r := rng.SplitIndexed(s.Seed, "class-mass", int(boolBit(class.fiveG))<<1|int(boolBit(class.android9)))
	var total, risky float64
	for c := 0; c < chains; c++ {
		isp := sampleISP(r)
		prev := simnet.Attachment{}
		cur := &android.RATOption{}
		hasPrev := false
		mobility := geo.NewMobility(r)
		for i := 0; i < k; i++ {
			region := mobility.Next(r)
			atts, opts := sampleCandidates(network, r, isp, class.fiveG, region)
			var choice int
			if hasPrev {
				if r.Bool(s.Calibration.StayProb) {
					atts = append(atts, prev)
					opts = append(opts, *cur)
				}
				choice = pol.Select(cur, opts)
			} else {
				choice = pol.Select(nil, opts)
			}
			att := atts[choice]
			if hasPrev && att.BS != nil && prev.BS != nil && att.RAT != prev.RAT {
				h := simnet.TransitionHazard(att)
				total += h
				if att.RAT == telephony.RAT5G && att.Level <= telephony.Level1 {
					risky += h
				}
			}
			prev = att
			*cur = android.RATOption{RAT: att.RAT, Level: att.Level}
			hasPrev = att.BS != nil
		}
	}
	return classMass{total: total / chains, risky: risky / chains}
}

func boolBit(b bool) uint {
	if b {
		return 1
	}
	return 0
}
