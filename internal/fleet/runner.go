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
// a device draws the same sequence whichever worker runs it. Each worker's
// buffer is published as it was recorded, in worker order, so the dataset
// is in device order — by DeviceID, each device's events in recording
// order — and its events and their order are independent of worker count,
// as are the integer aggregates. The float sums (Dwell and the overhead's
// CPU sum) are not: each worker adds up its own devices before Run adds
// the workers' contexts, so their last bits follow the worker count (see
// DESIGN.md).
func Run(s Scenario) (*Result, error) { return RunInto(s, nil) }

// RunInto is Run with each worker's events handed, in recording order, to
// a sink of its own instead of the dataset, which stays empty: newSink is
// called once per worker, in worker order, before any device runs (nil is
// Run). An uploading scenario is refused: its events go to a collector.
func RunInto(s Scenario, newSink func() monitor.Sink) (*Result, error) {
	runStart := time.Now()
	defer func() { mRunSeconds.Observe(time.Since(runStart).Seconds()) }()
	if newSink != nil && (s.UploadAddr != "" || s.UploadRouter != nil) {
		return nil, fmt.Errorf("fleet: an uploading run hands its events to the collector, not to a sink")
	}
	s = s.withDefaults()
	if err := s.Faults.CheckWindow(s.Window); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if err := s.checkUploads(); err != nil {
		return nil, err
	}
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

	workers := s.workers()
	outs := make([]shardOut, workers)
	sinks := make([]monitor.Sink, workers)
	for w := 0; newSink != nil && w < workers; w++ {
		sinks[w] = newSink()
	}
	stats.OnWorkers(workers, func(w int) {
		lo, hi := s.NumDevices*w/workers, s.NumDevices*(w+1)/workers
		outs[w] = runShardLanes(&s, refMass, network, inj, w, lo, hi, sinks[w])
	})

	res := &Result{Scenario: s, Dataset: dataset}
	res.StationsPerRAT = network.StationsPerRAT()
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return nil, o.err
		}
		res.Context.Add(&o.state.ctx)
		res.Integrity.Add(&o.integrity)
		res.RecordedDigest.Add(o.recordedDigest)
		dataset.Publish(o.events)
	}
	res.Faults = inj.Report()
	return res, nil
}

// workers is the number of workers a run of s shards its devices across:
// worker w simulates the device indexes [NumDevices*w/workers,
// NumDevices*(w+1)/workers).
func (s *Scenario) workers() int { return max(1, min(s.Workers, s.NumDevices)) }

// shardOut is one worker's harvest.
type shardOut struct {
	state     *shardState
	integrity IntegrityReport
	// events is the worker's buffered event output in recording order
	// (nil unless the worker buffers): its devices one after another, each
	// device's events in the order it recorded them. Run publishes it as
	// one dataset segment.
	events []failure.Event
	// recordedDigest summarizes the events this shard's devices recorded,
	// accumulated before the uploader (and any injected network fault)
	// touches them — the ground truth side of invariant I4.
	recordedDigest trace.Digest
	uploader       *trace.Uploader // nil unless the scenario uploads
	err            error
}

// setup picks the worker's delivery once, before its first device: its
// uploader if the scenario uploads, else sink if not nil, else its buffer.
// The uploader has WiFi from the start: flushDevice sends each device's
// events when the device finishes.
func (out *shardOut) setup(s *Scenario, state *shardState, inj *faultinject.Injector, lo int, sink monitor.Sink) {
	switch {
	case s.UploadAddr != "" || s.UploadRouter != nil:
		// A router resolves the initial target per device and keeps
		// re-resolving across membership changes; a bare UploadAddr pins
		// one collector for the whole run.
		addr := s.UploadAddr
		if s.UploadRouter != nil {
			addr = s.UploadRouter.Target(uint64(lo))
		}
		out.uploader = trace.NewUploader(addr, uint64(lo))
		if s.UploadRouter != nil {
			out.uploader.SetRouter(s.UploadRouter)
		}
		// Short, seeded backoff: the collector is local, so retries are
		// cheap; the jitter stream is split per shard so retry timing never
		// couples shards (and cannot perturb the simulation, which runs on
		// its own virtual clock).
		out.uploader.SetBackoff(2*time.Millisecond, 50*time.Millisecond,
			rng.SplitIndexed(s.Seed, "uploader-backoff", lo))
		out.uploader.SetWiFi(true)
		if inj.HasNetworkFaults() {
			out.uploader.SetChaos(inj)
		}
		state.sink = func(e failure.Event) {
			// Digest before upload: this is what the device observed, the
			// reference the collector's dataset must reproduce exactly.
			out.recordedDigest.Add(trace.EventDigest(&e))
			out.uploader.Record(e)
		}
	case sink != nil:
		state.sink = sink
	default:
		state.sink = func(e failure.Event) {
			if len(out.events) == cap(out.events) {
				// Double: append grows a large slice by a quarter, copying a
				// worker's buffer about five times over.
				out.events = slices.Grow(out.events, len(out.events)+1)
			}
			out.events = append(out.events, e)
		}
	}
}

// flushDevice uploads, if the worker has an uploader, what its device
// just recorded as one frame, unless a failed flush's backoff still runs.
// A flush that fails keeps its sealed frame for the next device's flush
// or for finish, so the backlog stays one device's events while the
// collector is reachable and no frame nears the wire limit.
func (out *shardOut) flushDevice() {
	if out.uploader != nil && out.uploader.RetryDelay() == 0 {
		out.uploader.Flush()
	}
}

// finish flushes the uploader, with retries, if the worker has one.
func (out *shardOut) finish(inj *faultinject.Injector) {
	if out.uploader == nil {
		return
	}
	// The end-of-shard flush is the last chance for whatever a failed
	// device flush left sealed; retry transient collector failures
	// before surfacing the error, counting retries for the dashboard.
	// Under an injected network
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
			if d := out.uploader.RetryDelay(); d > 0 {
				time.Sleep(d)
			} else {
				time.Sleep(time.Duration(attempt) * 100 * time.Millisecond)
			}
		}
		if err = out.uploader.Flush(); err == nil {
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
// worker index, used only as a metrics label; a non-nil sink takes the
// worker's events in place of its buffer.
func runShardLanes(s *Scenario, refMass map[classKey]classMass, network *simnet.Network, inj *faultinject.Injector, shard, lo, hi int, sink monitor.Sink) (out shardOut) {
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
	out.setup(s, state, inj, lo, sink)
	if out.uploader != nil {
		defer out.uploader.Close()
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
		out.flushDevice()
		mDevices.Inc()
		clock.Reset()
	}
	mSimEvents.Add(int64(executed))
	depth.Set(0)
	out.finish(inj)
	return out
}

// harvestActor folds one finished device into the worker's aggregates:
// state-machine integrity, monitor statistics, and overhead accounting.
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
	ctx := &out.state.ctx
	ctx.Monitor.Add(&st)
	ctx.Overhead.Add(&OverheadSummary{
		Devices:           1,
		CPUUtilizationSum: o.CPUUtilization(),
		MaxCPUUtilization: o.CPUUtilization(),
		MaxMemoryBytes:    o.MemoryPeakBytes,
		MaxStorageBytes:   o.StorageBytes,
		MaxNetworkBytes:   o.NetworkBytes,
		TotalNetworkBytes: o.NetworkBytes,
	})
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
