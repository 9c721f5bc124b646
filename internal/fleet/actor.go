package fleet

import (
	"slices"
	"time"

	"repro/internal/android"
	"repro/internal/device"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/geo"
	"repro/internal/monitor"
	"repro/internal/netprobe"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// plannedEpisode is one scheduled failure opportunity. It is a fused value
// record: the transition context and pinned attachment are embedded by
// value (with has-flags) rather than pointed to, so a device's whole plan
// lives in one contiguous slice and planning allocates nothing per episode.
type plannedEpisode struct {
	at   simclock.Time
	kind failure.Kind
	// transition is the RAT-transition context for transition-induced
	// episodes; valid iff hasTransition.
	transition    failure.TransitionInfo
	hasTransition bool
	// att pins the attachment context for transition-induced episodes
	// (the post-transition camp); valid iff hasAtt (base episodes sample
	// a hazard-tilted attachment instead).
	att    simnet.Attachment
	hasAtt bool
	// fp marks a false-positive episode: a suspicious event the monitor
	// must filter rather than record.
	fp bool
	// fault tags an episode injected by a campaign rule; its life cycle
	// (injected/recovered/dropped) is accounted on the rule.
	fault *faultinject.ActiveRule
	// cause forces the setup fail cause for setup-storm episodes
	// (CauseNone: sample from the environment mix).
	cause telephony.FailCause
	// dur pre-samples a fault episode's duration (stall auto-fix or OOS
	// span), capped so the episode concludes inside the run's slack.
	dur time.Duration
}

// laneScratch is the reusable per-worker allocation arena. A worker lane
// simulates one device at a time, so every buffer a device needs during
// planning and episode execution can be recycled for the next device.
type laneScratch struct {
	fr      *rng.Source
	planned []plannedEpisode
	// retries counts, per plan index, how often a colliding episode has
	// been put off (see runPlanned).
	retries      []uint8
	transitions  []chainTransition
	chainAtts    []simnet.Attachment
	chainWeights []float64
	candAtts     []simnet.Attachment
	candOpts     []android.RATOption
	weights      []float64
	cum          []float64
	kindCum      []float64
	outcomes     []android.SetupOutcome
}

func newLaneScratch() *laneScratch {
	return &laneScratch{
		// Candidate slots: at most four RAT draws plus the sticky previous
		// camp, so capacity 8 means the chain walk never reallocates.
		candAtts: make([]simnet.Attachment, 0, 8),
		candOpts: make([]android.RATOption, 0, 8),
	}
}

// chainTransition is one hazardous RAT transition observed on the dwell
// chain, a candidate site for transition-induced failures.
type chainTransition struct {
	slot int
	att  simnet.Attachment
	info failure.TransitionInfo
	mass float64
}

// actor is one simulated Android-MOD device.
type actor struct {
	id    uint64
	model device.Model
	isp   simnet.ISPID

	clock *simclock.Scheduler
	r     *rng.Source
	scen  *Scenario
	cal   *Calibration
	net   *simnet.Network

	// inj is the compiled fault campaign (nil for calm runs); fr is the
	// device's dedicated fault stream. Keeping fault draws off the base
	// stream r means a campaign perturbs organic planning only through
	// the environment, never through RNG alignment.
	inj *faultinject.Injector
	fr  *rng.Source

	intensity device.Intensity
	policy    android.RATPolicy
	dual      android.DualConnectivity
	// kindCum is the device's failure-kind cumulative distribution, built
	// into lane scratch (see buildKindPick).
	kindCum []float64

	host     *netprobe.SimHost
	mon      *monitor.Service
	radio    simRadio
	exec     opExec
	dc       *android.DataConnection
	detector *android.StallDetector
	engine   *android.RecoveryEngine
	service  *android.ServiceTracker

	att  simnet.Attachment
	busy bool

	// episode-scoped state for the active stall: the natural-heal and
	// user-reset timers, re-armed each episode, and the callbacks bound
	// once per device.
	healTimer  simclock.Timer
	resetTimer simclock.Timer
	healFn     func()
	resetFn    func()
	endStallFn func()
	// pending transition context for the in-flight setup episode (each
	// xTransition here is valid iff its xHasTransition).
	inSetup            bool
	setupTransition    failure.TransitionInfo
	setupHasTransition bool
	setupStart         simclock.Time
	setupCause         telephony.FailCause
	setupAttempts      int
	// active stall episode context.
	stallTransition    failure.TransitionInfo
	stallHasTransition bool
	stallAutoFix       time.Duration
	// active Out_of_Service episode context.
	oosTransition    failure.TransitionInfo
	oosHasTransition bool
	// campaign rules behind in-flight fault episodes, for life-cycle
	// accounting at conclusion.
	setupFault *faultinject.ActiveRule
	stallFault *faultinject.ActiveRule
	oosFault   *faultinject.ActiveRule

	events int

	// chainAtts/chainWeights hold the dwell chain's attachments and their
	// dwell×hazard weights; failure episodes draw their radio context from
	// this distribution so failure rates per context stay consistent with
	// dwell accounting. Backed by lane scratch.
	chainAtts    []simnet.Attachment
	chainWeights []float64

	// planned is the device's episode plan; episodes are dispatched by
	// index through runPlannedFn, one method value shared by all of them,
	// and so are their retries. retries parallels planned (lane scratch).
	planned      []plannedEpisode
	retries      []uint8
	runPlannedFn func(int32)

	// per-device exposure dedup bitmaps.
	seenRAT    [numRATIdx]bool
	seenBSRAT  [numRATIdx]bool
	seenRATLvl [numRATIdx][telephony.NumSignalLevels]bool

	shard *shardState
	scr   *laneScratch
}

// shardState is aggregation local to one worker shard.
type shardState struct {
	trans TransitionMatrix
	dwell DwellStats
	pop   Population
	sink  monitor.Sink
	// refMass is the fleet-level expected transition hazard mass per
	// device class under the vanilla policy (see estimateClassMasses).
	refMass map[classKey]classMass
}

// classKey buckets devices for transition-mass normalization.
type classKey struct {
	fiveG    bool
	android9 bool
}

func deviceClass(m device.Model) classKey {
	return classKey{fiveG: m.FiveG, android9: m.Android == 9}
}

// simRadio scripts setup outcomes for the real DataConnection machine.
type simRadio struct {
	clock    *simclock.Scheduler
	latency  time.Duration
	outcomes []android.SetupOutcome
	next     int
	// replies holds the setup replies in flight; replyFn delivers reply i
	// through PostIdx, and the slice is recycled once all are delivered.
	replies   []radioReply
	delivered int
	replyFn   func(int32)
}

// radioReply is one setup reply in flight.
type radioReply struct {
	tag  uint64
	out  android.SetupOutcome
	done func(uint64, android.SetupOutcome)
}

func (r *simRadio) Setup(tag uint64, done func(uint64, android.SetupOutcome)) {
	out := android.SetupOutcome{Success: true}
	if r.next < len(r.outcomes) {
		out = r.outcomes[r.next]
		r.next++
	}
	r.replies = append(r.replies, radioReply{tag: tag, out: out, done: done})
	r.clock.PostIdx(r.clock.Now()+r.latency, r.replyFn, int32(len(r.replies)-1))
}

func (r *simRadio) reply(i int32) {
	rep := r.replies[i]
	if r.delivered++; r.delivered == len(r.replies) {
		r.replies, r.delivered = r.replies[:0], 0
	}
	rep.done(rep.tag, rep.out)
}

func (r *simRadio) Teardown(done func()) {
	r.clock.PostAfter(r.latency/2, done)
}

func (r *simRadio) script(outcomes []android.SetupOutcome) {
	r.outcomes = outcomes
	r.next = 0
}

// opExec executes recovery operations against the device's host: a
// successful operation heals a network-side stall.
type opExec struct {
	a *actor
	// done is the engine's report callback. The device's one engine binds
	// it once and passes the same value with every operation, so one field
	// serves every operation in flight.
	done       func(bool)
	completeFn func(int32)
}

func (e *opExec) Execute(op android.RecoveryOp, done func(bool)) {
	e.done = done
	e.a.clock.PostIdx(e.a.clock.Now()+e.a.cal.OpOverhead[int(op)-1], e.completeFn, int32(op))
}

// complete concludes operation op once its execution overhead elapsed.
func (e *opExec) complete(op int32) {
	a := e.a
	p := a.cal.OpSuccess[op-1]
	// Device-side recovery cannot repair broken infrastructure: on
	// long-neglected remote BSes the operations mostly fail, which is
	// where the paper's multi-hour outages come from.
	if a.att.BS != nil && a.att.BS.Region == geo.Remote {
		p *= 0.45
	}
	success := a.r.Bool(p)
	// System-side faults (firewall/proxy/driver) are not fixable by
	// connection-level recovery; they are filtered by the prober
	// anyway, usually before any operation fires.
	if a.host.ConditionNow().SystemSide() {
		success = false
	}
	if success {
		a.host.SetCondition(netprobe.Healthy)
	}
	e.done(success)
}

// newActor builds a device and plans its episodes. The dwell chain runs
// immediately (it is pure accounting); episodes are scheduled on the clock.
// scr is the worker lane's allocation arena, reused across its whole device
// range: the actor must be finished before the next one is built on it.
func newActor(id uint64, m device.Model, clock *simclock.Scheduler, r *rng.Source, scen *Scenario, net *simnet.Network, shard *shardState, inj *faultinject.Injector, scr *laneScratch) *actor {
	a := &actor{
		id:    id,
		model: m,
		clock: clock,
		r:     r,
		scen:  scen,
		cal:   scen.Calibration,
		net:   net,
		shard: shard,
		inj:   inj,
		scr:   scr,
	}
	if inj != nil {
		// The fault stream is keyed on the device index, not the shard, so
		// campaign decisions are worker-count-independent like everything
		// else. Reseeding scratch's generator in place yields the same
		// stream SplitIndexed would allocate.
		if scr.fr == nil {
			scr.fr = rng.New(0)
		}
		scr.fr.Reseed(rng.IndexedSeed(scen.Seed, "faultinject", int(id-1)))
		a.fr = scr.fr
	}
	a.isp = sampleISP(r)
	// ISP quality modulates both whether a device fails at all and how
	// often (Figures 12/13): scale the model's Table-1 prevalence and
	// frequency by the subscriber's carrier factor.
	scaled := m
	f := simnet.ISPs()[a.isp].PrevalenceFactor
	scaled.Prevalence *= f
	if scaled.Prevalence > 0.95 {
		scaled.Prevalence = 0.95
	}
	scaled.Frequency *= f
	a.intensity = device.SampleIntensity(r, scaled, device.DefaultIntensityParams())
	a.policy = a.pickPolicy()
	if m.FiveG && scen.DualConnectivity {
		a.dual = android.DualConnectivity{Enabled: true}
	}

	a.host = netprobe.NewSimHost()
	monCfg := monitor.DefaultConfig()
	monCfg.DisableFiltering = scen.DisableFPFilter
	a.mon = monitor.New(clock, monCfg, id, m.ID, m.Android, m.FiveG, a.host, shard.sink)
	a.radio = simRadio{clock: clock, latency: 300 * time.Millisecond}
	a.radio.replyFn = a.radio.reply
	a.dc = android.NewDataConnection(clock, &a.radio, android.DefaultDataConnectionConfig(), android.Hooks{
		OnSetupAbandoned: func(cause telephony.FailCause) { a.finishSetupEpisode(cause) },
		OnConnected: func() {
			if a.inSetup {
				a.finishSetupEpisode(a.setupCause)
			}
		},
		OnSetupError: func(cause telephony.FailCause, attempt int) {
			a.setupCause = cause
			a.setupAttempts = attempt
		},
	})
	a.detector = android.NewStallDetector(clock, android.DefaultStallDetectorConfig(), nil)
	a.detector.OnStall = a.onStallDetected
	a.exec = opExec{a: a}
	a.exec.completeFn = a.exec.complete
	a.engine = android.NewRecoveryEngine(clock, scen.Trigger, &a.exec, func(res android.Resolution) {
		a.mon.NoteStallResolution(res)
	})
	a.mon.BindRecovery(a.engine, a.detector)
	a.service = android.NewServiceTracker(clock, android.ServiceHooks{
		OnOutOfServiceEnd: func(d time.Duration) {
			a.mon.OnOutOfService(d, a.oosTransition, a.oosHasTransition)
			a.oosHasTransition = false
			if a.oosFault != nil {
				a.oosFault.NoteRecovered()
				a.oosFault = nil
			}
			a.busy = false
			a.events++
		},
	})

	a.healFn = a.autoHeal
	a.resetFn = a.userReset
	a.endStallFn = a.endStall

	a.accountPopulation()
	a.planned = a.dwellChainAndPlan()
	scr.planned = a.planned // retain growth for the next device on this lane
	a.retries = slices.Grow(scr.retries[:0], len(a.planned))[:len(a.planned)]
	clear(a.retries)
	scr.retries = a.retries
	// One bound method value dispatches the whole plan by index: scheduling
	// N episodes costs zero allocations instead of N closures and timers.
	a.runPlannedFn = a.runPlanned
	for i := range a.planned {
		clock.PostIdx(a.planned[i].at, a.runPlannedFn, int32(i))
	}
	return a
}

func (a *actor) pickPolicy() android.RATPolicy {
	switch a.scen.Policy {
	case PolicyStability:
		return android.StabilityCompatiblePolicy{Risk: a.risk}
	case PolicyNever5G:
		return android.Never5GPolicy{}
	default:
		if a.model.Android >= 10 {
			return android.Android10Policy{}
		}
		return android.Android9Policy{}
	}
}

// risk estimates an option's failure likelihood for the stability policy,
// mirroring what Figure 16 taught the paper's authors: weak signal is the
// dominant factor, and immature 5G modules carry extra risk. Steady-state
// contention differences among legacy RATs are deliberately excluded —
// the policy weighs connection stability, not load.
func (a *actor) risk(o android.RATOption) float64 {
	h := simnet.LevelHazard(o.Level)
	if o.RAT == telephony.RAT5G {
		h *= simnet.ContentionFactor[telephony.RAT5G]
	}
	return h
}

var ispPick = func() *rng.Categorical {
	isps := simnet.ISPs()
	ws := make([]float64, len(isps))
	for i, isp := range isps {
		ws[i] = isp.UserShare
	}
	return rng.NewCategorical(ws)
}()

func sampleISP(r *rng.Source) simnet.ISPID { return simnet.ISPID(ispPick.Draw(r)) }

var regionPick = func() *rng.Categorical {
	ws := make([]float64, geo.NumRegions)
	for i, p := range geo.Profiles() {
		ws[i] = p.TrafficShare
	}
	return rng.NewCategorical(ws)
}()

func (a *actor) accountPopulation() {
	a.shard.pop.Total++
	a.shard.pop.ByModel[a.model.ID]++
	a.shard.pop.ByISP[a.isp]++
	if a.model.FiveG {
		a.shard.pop.FiveG++
	}
	if a.model.Android == 9 {
		a.shard.pop.Android9++
	} else if !a.model.FiveG {
		a.shard.pop.Android10No5G++
	}
}

// candidateOptions samples the camping choices visible at a location.
func (a *actor) candidateOptions(r *rng.Source, region geo.Region) ([]simnet.Attachment, []android.RATOption) {
	return a.candidateOptionsAt(r, region, 0)
}

// candidateOptionsAt samples the camping choices visible at a location at
// a virtual time, applying the fault campaign's condition overrides (RSS
// degradation, RAT downgrades) when one is active. The returned slices are
// backed by the actor's lane scratch and are valid until the next call.
func (a *actor) candidateOptionsAt(r *rng.Source, region geo.Region, at time.Duration) ([]simnet.Attachment, []android.RATOption) {
	var ov simnet.Overlay
	if a.inj != nil {
		ov = a.inj
	}
	return sampleCandidatesAt(a.net, r, a.isp, a.model.FiveG, region, at, ov,
		a.scr.candAtts[:0], a.scr.candOpts[:0])
}

// sampleCandidates draws the camping choices visible to a device of the
// given capability at a location, in the calm environment.
func sampleCandidates(net *simnet.Network, r *rng.Source, isp simnet.ISPID, fiveG bool, region geo.Region) ([]simnet.Attachment, []android.RATOption) {
	return sampleCandidatesAt(net, r, isp, fiveG, region, 0, nil, nil, nil)
}

// candidateWants lists the RAT draws in preference-probe order; 5G-capable
// devices additionally probe 5G.
var (
	candidateWants4 = [...]telephony.RAT{telephony.RAT4G, telephony.RAT2G, telephony.RAT3G}
	candidateWants5 = [...]telephony.RAT{telephony.RAT4G, telephony.RAT2G, telephony.RAT3G, telephony.RAT5G}
)

// sampleCandidatesAt is sampleCandidates under a fault overlay: sampled
// levels are shifted and blocked RATs fall back exactly as the network
// would present them at virtual time at. atts/opts are caller scratch
// (appended to; pass nil to allocate fresh).
func sampleCandidatesAt(net *simnet.Network, r *rng.Source, isp simnet.ISPID, fiveG bool, region geo.Region, at time.Duration, ov simnet.Overlay, atts []simnet.Attachment, opts []android.RATOption) ([]simnet.Attachment, []android.RATOption) {
	wants := candidateWants4[:]
	if fiveG {
		wants = candidateWants5[:]
	}
	var seen uint8 // bitmask over RAT indices (numRATIdx <= 8)
	for _, w := range wants {
		att, err := net.AttachAt(r, isp, region, w, at, ov)
		if err != nil {
			continue
		}
		if seen&(1<<uint(att.RAT)) != 0 {
			continue
		}
		seen |= 1 << uint(att.RAT)
		atts = append(atts, att)
		opts = append(opts, android.RATOption{RAT: att.RAT, Level: att.Level})
	}
	if len(atts) == 0 {
		// No service anywhere for this ISP; synthesize a dead camp.
		atts = append(atts, simnet.Attachment{})
		opts = append(opts, android.RATOption{})
	}
	return atts, opts
}

// dwellChainAndPlan walks the device through DwellSamples attachments over
// the window, accounting dwell/exposure, counting policy-driven RAT
// transitions, rolling transition-induced failures, and planning base
// failure opportunities. It returns the planned episodes.
func (a *actor) dwellChainAndPlan() []plannedEpisode {
	cal := a.cal
	k := cal.DwellSamples
	if k < 2 {
		k = 2
	}
	slot := a.scen.Window / time.Duration(k)

	// Per-device kind weights: Out_of_Service only befalls OOS-prone
	// devices; others fold that mass into Data_Stall.
	a.buildKindPick()

	// Transition-failure intensity: under the *vanilla* policy a device's
	// transition-induced failures make up share×E[failures]. The per-
	// transition probability constant is therefore normalized against a
	// reference chain walked with the vanilla policy — a physical property
	// of the environment that does not depend on the deployed policy — so
	// a policy that avoids hazardous transitions genuinely removes those
	// failures instead of redistributing them (Figures 19/20).
	share := cal.TransitionShareOther
	if a.model.FiveG && a.model.Android >= 10 {
		share = cal.TransitionShare5G
		if a.intensity.ExpectedFailures <= cal.TransitionOnlyMaxE && a.r.Bool(cal.TransitionOnly5G) {
			share = 1
		}
	}
	transitionOnly := share >= 1
	if !a.intensity.Prone || a.shard.refMass[deviceClass(a.model)].total <= 0 {
		share = 0
	}
	lambda := share // non-zero iff transition failures apply to this device

	planned := a.scr.planned[:0]
	a.chainAtts = a.scr.chainAtts[:0]
	a.chainWeights = a.scr.chainWeights[:0]

	// Base opportunities.
	if a.intensity.Prone {
		mean := a.intensity.ExpectedFailures * (1 - share)
		n := device.Poisson(a.r, mean)
		if n > a.scen.MaxEventsPerDevice {
			n = a.scen.MaxEventsPerDevice
		}
		// A prone device is by definition one that experiences at least
		// one failure during the window; guarantee the draw — except for
		// 5G/Android-10 devices, whose large transition-induced share can
		// legitimately account for all of a light device's failures (that
		// is exactly how the patched policy reduces *prevalence*, not just
		// frequency, in Figure 19).
		if n == 0 && share < 0.2 {
			n = 1
		}
		for i := 0; i < n; i++ {
			planned = append(planned, plannedEpisode{
				at:   time.Duration(a.r.Float64() * float64(a.scen.Window)),
				kind: a.sampleKind(),
			})
		}
		// Extra false-positive episodes: suspicious events the monitor
		// must filter; they record nothing.
		nfp := device.Poisson(a.r, a.intensity.ExpectedFailures*cal.FPExtraRate)
		for i := 0; i < nfp; i++ {
			kind := failure.DataStall
			if a.r.Bool(cal.FPSetupShare) {
				kind = failure.DataSetupError
			}
			planned = append(planned, plannedEpisode{
				at:   time.Duration(a.r.Float64() * float64(a.scen.Window)),
				kind: kind,
				fp:   true,
			})
		}
	}

	// Walk the chain, accounting dwell and collecting RAT transitions.
	transitions := a.scr.transitions[:0]
	var massSum float64

	prev := simnet.Attachment{}
	cur := &android.RATOption{}
	hasPrev := false
	mobility := geo.NewMobility(a.r)
	for i := 0; i < k; i++ {
		slotStart := time.Duration(i) * slot
		region := mobility.Next(a.r)
		atts, opts := a.candidateOptionsAt(a.r, region, slotStart)
		var choice int
		if hasPrev {
			// The current serving cell sometimes remains reachable after
			// the move, letting a policy decline every fresh candidate
			// and stay camped.
			if a.r.Bool(cal.StayProb) {
				atts = append(atts, prev)
				opts = append(opts, *cur)
			}
			choice = a.policy.Select(cur, opts)
		} else {
			choice = a.policy.Select(nil, opts)
		}
		att := atts[choice]

		// A campaign blackout/flap takes the chosen BS out of service: the
		// device suffers an observable Out_of_Service episode against the
		// downed camp, then re-camps on whichever already-sampled candidate
		// survives (no redraws, so the base stream stays aligned).
		if a.inj != nil && att.BS != nil {
			if dr := a.inj.DownRuleFor(att.BS, slotStart); dr != nil {
				lo, hi := maxDur(slotStart, dr.Start), minDur(slotStart+slot, dr.End())
				if hi > lo {
					at := lo + time.Duration(a.fr.Float64()*float64(hi-lo))
					planned = append(planned, plannedEpisode{
						at:     at,
						kind:   failure.OutOfService,
						att:    att,
						hasAtt: true,
						fault:  dr,
						dur:    a.cappedFaultDur(a.cal.SampleOOSDuration(a.fr), at),
					})
				}
				var aliveAtts []simnet.Attachment
				var aliveOpts []android.RATOption
				for j := range atts {
					if atts[j].BS != nil && a.inj.BSDown(atts[j].BS, slotStart) {
						continue
					}
					aliveAtts = append(aliveAtts, atts[j])
					aliveOpts = append(aliveOpts, opts[j])
				}
				switch {
				case len(aliveAtts) == 0:
					att = simnet.Attachment{} // dead camp: nothing reachable
				case hasPrev:
					att = aliveAtts[a.policy.Select(cur, aliveOpts)]
				default:
					att = aliveAtts[a.policy.Select(nil, aliveOpts)]
				}
			}
		}
		a.accountDwell(att, slot)
		if att.BS != nil {
			w := att.BS.Region.Profile().DwellFactor * a.net.Hazard(a.isp, att)
			if w > 0 {
				a.chainAtts = append(a.chainAtts, att)
				a.chainWeights = append(a.chainWeights, w)
			}
		}

		if hasPrev && att.BS != nil && prev.BS != nil && att.RAT != prev.RAT {
			a.shard.trans.Exposure[prev.RAT][prev.Level][att.RAT][att.Level]++
			if lambda > 0 {
				if transitionOnly && !(att.RAT == telephony.RAT5G && att.Level <= telephony.Level1) {
					// Transition-only devices fail exclusively on the
					// avoidable weak-5G transitions (Figure 17f): blind
					// handovers into 5G cells with level-0/1 signal,
					// which the stability-compatible policy refuses.
					goto next
				}
				// float64(...) keeps massSum += mass from fusing (arm64 FMA).
				mass := float64(simnet.TransitionHazard(att) * a.windowFraction(prev.RAT, att.RAT))
				if mass > 0 {
					transitions = append(transitions, chainTransition{
						slot: i,
						att:  att,
						info: failure.TransitionInfo{
							FromRAT: prev.RAT, ToRAT: att.RAT,
							FromLevel: prev.Level, ToLevel: att.Level,
						},
						mass: mass,
					})
					massSum += mass
				}
			}
		}
	next:
		prev = att
		*cur = android.RATOption{RAT: att.RAT, Level: att.Level}
		hasPrev = att.BS != nil
		if i == 0 {
			a.att = att
			a.applyContext(att)
		}

		// Campaign storms: a device camped under a matching selector while
		// a setup-storm or stall-storm rule is active suffers extra
		// episodes, Poisson-scaled by the slot's overlap with the rule
		// window. All draws come from the fault stream.
		if a.inj != nil && att.BS != nil {
			for _, ar := range a.inj.StormRules() {
				if !ar.Sel.MatchCamp(a.isp, att) {
					continue
				}
				lo, hi := maxDur(slotStart, ar.Start), minDur(slotStart+slot, ar.End())
				if hi <= lo {
					continue
				}
				mean := ar.Intensity * float64(hi-lo) / float64(ar.Window)
				neglect := att.BS.Region.Profile().NeglectFactor
				for n := device.Poisson(a.fr, mean); n > 0; n-- {
					ep := plannedEpisode{
						at:     lo + time.Duration(a.fr.Float64()*float64(hi-lo)),
						kind:   failure.DataStall,
						att:    att,
						hasAtt: true,
						fault:  ar,
					}
					if ar.Class == faultinject.ClassSetupStorm {
						ep.kind = failure.DataSetupError
						if c, ok := ar.SampleCause(a.fr); ok {
							ep.cause = c
						}
					} else {
						ep.dur = a.cappedFaultDur(a.cal.SampleStallAutoFix(a.fr, neglect), ep.at)
					}
					planned = append(planned, ep)
				}
			}
		}

		// Injected regional outages: a device present in the region while
		// its infrastructure is down suffers extra stall episodes.
		if att.BS != nil {
			for _, out := range a.scen.Outages {
				if att.BS.Region != out.Region || out.EpisodesPerDevice <= 0 {
					continue
				}
				oStart, oEnd := out.Start, out.Start+out.Window
				if slotStart+slot <= oStart || slotStart >= oEnd {
					continue
				}
				// Overlap fraction scales the expected episode count.
				lo, hi := maxDur(slotStart, oStart), minDur(slotStart+slot, oEnd)
				mean := out.EpisodesPerDevice * float64(hi-lo) / float64(out.Window)
				for n := device.Poisson(a.r, mean); n > 0; n-- {
					planned = append(planned, plannedEpisode{
						at:     lo + time.Duration(a.r.Float64()*float64(hi-lo)),
						kind:   failure.DataStall,
						att:    att,
						hasAtt: true,
					})
				}
			}
		}
	}

	// Transition-failure budget: share×E scaled by how the device's
	// realized hazard mass compares to the vanilla class expectation. A
	// policy that avoids hazardous transitions shrinks the mass and hence
	// the budget; the ratio is capped so a single unlucky chain cannot
	// make one device explode.
	if lambda > 0 && len(transitions) > 0 && massSum > 0 {
		cm := a.shard.refMass[deviceClass(a.model)]
		refMass := cm.total
		if transitionOnly {
			refMass = cm.risky
		}
		if refMass <= 0 {
			refMass = cm.total
		}
		ratio := massSum / refMass
		if ratio > 8 {
			ratio = 8
		}
		budget := device.Poisson(a.r, share*a.intensity.ExpectedFailures*ratio)
		if budget > a.scen.MaxEventsPerDevice {
			budget = a.scen.MaxEventsPerDevice
		}
		weights := a.scr.weights[:0]
		for _, tr := range transitions {
			weights = append(weights, tr.mass)
		}
		a.scr.weights = weights
		cum := rng.BuildCum(a.scr.cum, weights)
		a.scr.cum = cum
		for f := 0; f < budget; f++ {
			tr := &transitions[rng.DrawCum(a.r, cum)]
			a.shard.trans.Failures[tr.info.FromRAT][tr.info.FromLevel][tr.info.ToRAT][tr.info.ToLevel]++
			planned = append(planned, plannedEpisode{
				at:            time.Duration(tr.slot)*slot + time.Duration(a.r.Float64()*float64(slot)),
				kind:          a.sampleTransitionKind(),
				transition:    tr.info,
				hasTransition: true,
				att:           tr.att,
				hasAtt:        true,
			})
		}
	}

	// Retain buffer growth on the lane scratch for the next device.
	a.scr.transitions = transitions
	a.scr.chainAtts = a.chainAtts
	a.scr.chainWeights = a.chainWeights
	return planned
}

// kindList is the fixed order of failure kinds buildKindPick weighs.
var kindList = [...]failure.Kind{failure.DataSetupError, failure.DataStall, failure.OutOfService, failure.SMSSendFail, failure.VoiceFailure}

func (a *actor) buildKindPick() {
	cal := a.cal
	var ws [len(kindList)]float64
	for i, k := range kindList {
		ws[i] = cal.KindWeights[k]
	}
	// Out_of_Service is concentrated in the OOS-prone minority (only ~5%
	// of phones ever see one, §3.1): prone devices carry the fleet OOS
	// mass scaled up by the prone fraction, others redistribute it over
	// the remaining kinds proportionally, preserving the fleet-wide mix.
	const proneFrac = 0.22
	oos := ws[2]
	if a.intensity.OOSProne {
		ws[2] = oos / proneFrac
		scale := (1 - ws[2]) / (1 - oos)
		if scale < 0 {
			scale = 0
		}
		for i := range ws {
			if i != 2 {
				ws[i] *= scale
			}
		}
	} else {
		ws[2] = 0
		scale := 1 / (1 - oos)
		for i := range ws {
			if i != 2 {
				ws[i] *= scale
			}
		}
	}
	a.kindCum = rng.BuildCum(a.scr.kindCum, ws[:])
	a.scr.kindCum = a.kindCum
}

func (a *actor) sampleKind() failure.Kind {
	return kindList[rng.DrawCum(a.r, a.kindCum)]
}

// sampleTransitionKind draws the failure kind for a transition-induced
// episode; transitions mostly break setup (IRAT handover failures) or
// stall the connection. Out_of_Service stays confined to OOS-prone
// devices (§3.1: 95% of phones never see one).
func (a *actor) sampleTransitionKind() failure.Kind {
	u := a.r.Float64()
	switch {
	case u < 0.55:
		return failure.DataSetupError
	case u < 0.90 || !a.intensity.OOSProne:
		return failure.DataStall
	default:
		return failure.OutOfService
	}
}

// windowFraction scales transition-failure probability by the transition
// vulnerability window; dual connectivity shrinks the 4G/5G window.
func (a *actor) windowFraction(from, to telephony.RAT) float64 {
	base := a.cal.TransitionWindow
	w := a.dual.TransitionWindow(base, from, to)
	return float64(w) / float64(base)
}

func (a *actor) accountDwell(att simnet.Attachment, slot time.Duration) {
	if att.BS == nil {
		return
	}
	rat := att.RAT
	lvl := att.Level
	d := &a.shard.dwell
	d.Seconds[rat][lvl] += float64(slot.Seconds() * att.BS.Region.Profile().DwellFactor) // no FMA
	// Exposure sets are per device; dedupe with the actor's bitmaps.
	if !a.seenRATLvl[rat][lvl] {
		a.seenRATLvl[rat][lvl] = true
		d.DevicesExposed[rat][lvl]++
	}
	if !a.seenRAT[rat] {
		a.seenRAT[rat] = true
		d.DevicesOnRAT[rat]++
	}
	for _, bsRAT := range att.BS.RATs {
		if !a.seenBSRAT[bsRAT] {
			a.seenBSRAT[bsRAT] = true
			d.DevicesOnBSRAT[bsRAT]++
		}
	}
}

func (a *actor) applyContext(att simnet.Attachment) {
	ctx := monitor.InSitu{ISP: a.isp, RAT: att.RAT, Level: att.Level, APN: telephony.APNDefault}
	if att.BS != nil {
		ctx.Cell = att.BS.Identity
		ctx.Region = att.BS.Region
		ctx.DenseBS = att.BS.Dense
	}
	a.mon.SetContext(ctx)
}

// cappedFaultDur bounds a fault episode's duration so it concludes — and
// its measurement drains — inside the post-window slack the shard clock
// runs. Organic heavy-tail episodes may outlast the run; injected ones
// must not, because the recovery invariant counts their conclusions.
func (a *actor) cappedFaultDur(d time.Duration, at simclock.Time) time.Duration {
	deadline := a.scen.Window + time.Hour
	if at+d > deadline {
		d = deadline - at
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
