// Package monitor implements Android-MOD's continuous monitoring service
// (§2.2): it registers as an event listener on the reimplemented cellular
// connection management, records in-situ radio/BS information with every
// suspicious failure event, rules out false positives (incoming voice
// calls, balance suspensions, manual disconnections, BS-overload setup
// rejections, and probe-classified system-side/DNS-side stalls), measures
// Data_Stall durations with the network-state probing component, and
// accounts its own CPU/memory/storage/network overhead against the paper's
// budget claims.
package monitor

import (
	"time"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/geo"
	"repro/internal/netprobe"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// InSitu is the device/radio context captured with each event, obtained in
// real Android via TelephonyManager and ServiceState.
type InSitu struct {
	ISP     simnet.ISPID
	Cell    telephony.CellIdentity
	Region  geo.Region
	DenseBS bool
	RAT     telephony.RAT
	Level   telephony.SignalLevel
	APN     telephony.APN
}

// Sink receives true (post-filter) failure events.
type Sink func(failure.Event)

// Overhead tallies the monitoring service's resource usage. The paper's
// budget for a low-end phone: <2% CPU within failure durations, <40 KB
// memory, <100 KB storage, <100 KB network per month (up to <8%, 2 MB,
// 20 MB, 20 MB for the heaviest <1% of devices).
type Overhead struct {
	// CPUBusy is time spent processing events and probes.
	CPUBusy time.Duration
	// FailureTime is the total duration of observed failures; CPU
	// utilization is CPUBusy/FailureTime (the paper's definition).
	FailureTime time.Duration
	// MemoryPeakBytes is the peak in-memory buffer footprint. No upload
	// is modelled to drain the buffer, so it grows by eventMemory per
	// recorded event.
	MemoryPeakBytes int64
	// StorageBytes is the cumulative on-flash trace volume.
	StorageBytes int64
	// NetworkBytes is probe traffic (uploads are not modelled).
	NetworkBytes int64
}

// CPUUtilization returns CPUBusy as a fraction of observed failure time
// (0 when no failure time has been observed).
func (o Overhead) CPUUtilization() float64 {
	if o.FailureTime <= 0 {
		return 0
	}
	u := float64(o.CPUBusy) / float64(o.FailureTime)
	if u > 1 {
		u = 1
	}
	return u
}

// Cost constants for overhead accounting, sized from the paper's totals.
const (
	eventCPUCost    = 2 * time.Millisecond
	probeRoundCPU   = 300 * time.Microsecond
	eventStorage    = 64     // bytes per stored (compressed) event
	eventMemory     = 96     // bytes per buffered event
	probeRoundWire  = 3 * 64 // loopback ICMP + ICMP&DNS per server, approx
	filteredCPUCost = 500 * time.Microsecond
)

// Config tunes the service.
type Config struct {
	// Probe configures the Data_Stall probing component.
	Probe netprobe.Config
	// DisableFiltering turns off false-positive filtering (ablation):
	// every suspicious event is recorded as if it were a true failure,
	// quantifying how §2.2's filters keep the dataset clean.
	DisableFiltering bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config { return Config{Probe: netprobe.DefaultConfig()} }

// Stats counts what the service saw and filtered.
type Stats struct {
	Recorded        int
	FilteredSetup   int // false-positive Data_Setup_Error episodes
	FilteredStalls  int // probe-classified system-side/DNS stalls
	ByFPClass       [failure.NumFalsePositiveClasses]int
	ProbeRounds     int
	StallsMeasured  int
	LegacyFallbacks int
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	s.Recorded += other.Recorded
	s.FilteredSetup += other.FilteredSetup
	s.FilteredStalls += other.FilteredStalls
	for i, v := range other.ByFPClass {
		s.ByFPClass[i] += v
	}
	s.ProbeRounds += other.ProbeRounds
	s.StallsMeasured += other.StallsMeasured
	s.LegacyFallbacks += other.LegacyFallbacks
}

// Service is one device's monitoring instance.
type Service struct {
	clock *simclock.Scheduler
	cfg   Config
	sink  Sink

	deviceID       uint64
	modelID        uint16
	androidVersion uint8
	fiveG          bool

	ctx      InSitu
	host     *netprobe.SimHost
	prober   *netprobe.Prober
	engine   *android.RecoveryEngine
	detector *android.StallDetector

	stats    Stats
	overhead Overhead

	// stallStart is the virtual time the active stall was detected.
	stallStart simclock.Time
	// stallTransition carries transition context for the active stall;
	// valid iff stallHasTransition.
	stallTransition    failure.TransitionInfo
	stallHasTransition bool
	stallAutoFix       time.Duration
	stallResolution    android.Resolution
	stallOnEnd         func()
}

// New creates a monitoring service for a device. host is the device's
// network stack used by the probing component; sink receives true events.
func New(clock *simclock.Scheduler, cfg Config, deviceID uint64, modelID, androidVersion int, fiveG bool, host *netprobe.SimHost, sink Sink) *Service {
	s := &Service{
		clock:          clock,
		cfg:            cfg,
		sink:           sink,
		deviceID:       deviceID,
		modelID:        uint16(modelID),
		androidVersion: uint8(androidVersion),
		fiveG:          fiveG,
		host:           host,
	}
	s.prober = netprobe.NewProber(clock, host, cfg.Probe, s.probeDone)
	return s
}

// BindRecovery attaches the recovery engine and stall detector so the
// service can clear state when an episode ends.
func (s *Service) BindRecovery(engine *android.RecoveryEngine, detector *android.StallDetector) {
	s.engine = engine
	s.detector = detector
}

// SetContext updates the in-situ radio context (called on every
// attachment change).
func (s *Service) SetContext(ctx InSitu) { s.ctx = ctx }

// Stats returns capture/filter counters.
func (s *Service) Stats() Stats { return s.stats }

// Overhead returns resource accounting.
func (s *Service) Overhead() Overhead { return s.overhead }

// OnSetupEpisode reports a completed Data_Setup_Error episode: the final
// cause, the number of attempts, how long connectivity was lost, and the
// preceding RAT transition (meaningful iff hasTransition). False positives
// are filtered here by error-code classification (§2.2).
func (s *Service) OnSetupEpisode(cause telephony.FailCause, attempts int, duration time.Duration, transition failure.TransitionInfo, hasTransition bool) {
	if fp := failure.ClassifySetupError(cause); fp != failure.FPNone && !s.cfg.DisableFiltering {
		s.stats.FilteredSetup++
		s.stats.ByFPClass[fp]++
		mFilteredByClass[fp].Inc()
		s.overhead.CPUBusy += filteredCPUCost
		return
	}
	s.record(failure.Event{
		Kind:          failure.DataSetupError,
		Cause:         cause,
		Duration:      duration,
		OpsExecuted:   uint8(attempts),
		HasTransition: hasTransition,
		Transition:    transition,
	})
}

// OnOutOfService reports a completed Out_of_Service episode.
func (s *Service) OnOutOfService(duration time.Duration, transition failure.TransitionInfo, hasTransition bool) {
	s.record(failure.Event{
		Kind:          failure.OutOfService,
		Duration:      duration,
		HasTransition: hasTransition,
		Transition:    transition,
	})
}

// OnLegacyFailure reports an SMS/voice failure (<1% of events, §3.1).
func (s *Service) OnLegacyFailure(kind failure.Kind, cause telephony.FailCause) {
	if kind != failure.SMSSendFail && kind != failure.VoiceFailure {
		return
	}
	s.record(failure.Event{Kind: kind, Cause: cause})
}

// OnStallDetected starts duration measurement for a suspicious Data_Stall.
// autoFix is the episode's natural self-recovery time (recorded for the
// Figure 10 distribution once the episode completes); transition carries
// RAT-transition context (meaningful iff hasTransition); onEnd, if non-nil,
// fires once when the episode concludes (recorded or filtered), letting the
// owner release episode resources.
func (s *Service) OnStallDetected(transition failure.TransitionInfo, hasTransition bool, autoFix time.Duration, onEnd func()) {
	if s.prober.Active() {
		return
	}
	s.stallStart = s.clock.Now()
	s.stallTransition, s.stallHasTransition = transition, hasTransition
	s.stallAutoFix = autoFix
	s.stallOnEnd = onEnd
	s.prober.Start()
}

// NoteStallResolution records how the active stall was resolved (from the
// recovery engine's callback); it is folded into the recorded event.
func (s *Service) NoteStallResolution(res android.Resolution) { s.stallResolution = res }

func (s *Service) probeDone(out netprobe.Outcome) {
	s.stats.ProbeRounds += out.Rounds
	mProbeRounds.Add(int64(out.Rounds))
	s.overhead.CPUBusy += time.Duration(out.Rounds) * probeRoundCPU
	s.overhead.NetworkBytes += int64(out.Rounds * probeRoundWire * s.numDNS())
	if out.RevertedToLegacy {
		s.stats.LegacyFallbacks++
		mLegacyFallbacks.Inc()
	}
	switch out.Verdict {
	case netprobe.VerdictSystemSideFP, netprobe.VerdictDNSFP:
		if s.cfg.DisableFiltering {
			s.record(failure.Event{Kind: failure.DataStall, Duration: out.Duration})
			s.endStallEpisode()
			break
		}
		if out.Verdict == netprobe.VerdictSystemSideFP {
			s.stats.ByFPClass[failure.FPSystemSide]++
			mFilteredByClass[failure.FPSystemSide].Inc()
		} else {
			s.stats.ByFPClass[failure.FPDNSOnly]++
			mFilteredByClass[failure.FPDNSOnly].Inc()
		}
		s.stats.FilteredStalls++
		s.endStallEpisode()
	case netprobe.VerdictRecovered:
		s.stats.StallsMeasured++
		mStallsMeasured.Inc()
		by := s.stallResolution.By
		if by == android.ResolvedNone {
			by = android.ResolvedAuto
		}
		s.record(failure.Event{
			Kind:          failure.DataStall,
			Duration:      out.Duration,
			HasTransition: s.stallHasTransition,
			Transition:    s.stallTransition,
			AutoFixTime:   s.stallAutoFix,
			ResolvedBy:    by,
			OpsExecuted:   uint8(s.stallResolution.OpsExecuted),
		})
		s.endStallEpisode()
	}
}

// endStallEpisode clears recovery machinery after the prober concluded.
func (s *Service) endStallEpisode() {
	s.stallHasTransition = false
	s.stallAutoFix = 0
	s.stallResolution = android.Resolution{}
	onEnd := s.stallOnEnd
	s.stallOnEnd = nil
	if s.engine != nil && s.engine.Active() {
		// The engine learns the episode is over (it may already have
		// resolved it itself via an operation; Active() guards that).
		s.engine.NotifyResolved(android.ResolvedAuto)
	}
	if s.detector != nil {
		s.detector.ClearStall()
	}
	if onEnd != nil {
		onEnd()
	}
}

func (s *Service) numDNS() int {
	if s.host == nil || s.host.NumDNSServers < 1 {
		return 1
	}
	return s.host.NumDNSServers
}

// record stamps the event with identity, context and time, accounts
// overhead, and emits it.
func (s *Service) record(e failure.Event) {
	e.DeviceID = s.deviceID
	e.ModelID = s.modelID
	e.AndroidVersion = s.androidVersion
	e.FiveGCapable = s.fiveG
	e.ISP = s.ctx.ISP
	e.Cell = s.ctx.Cell
	e.Region = s.ctx.Region
	e.DenseBS = s.ctx.DenseBS
	e.RAT = s.ctx.RAT
	e.Level = s.ctx.Level
	if e.APN == telephony.APNNone {
		e.APN = s.ctx.APN
	}
	e.Start = s.clock.Now()
	if e.Kind == failure.DataStall {
		e.Start = s.stallStart
	}

	s.stats.Recorded++
	mRecorded.Inc()
	s.overhead.CPUBusy += eventCPUCost
	s.overhead.FailureTime += e.Duration
	s.overhead.StorageBytes += eventStorage
	s.overhead.MemoryPeakBytes += eventMemory
	if s.sink != nil {
		s.sink(e)
	}
}
