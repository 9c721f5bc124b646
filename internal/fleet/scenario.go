package fleet

import (
	"fmt"
	"time"

	"repro/internal/android"
	"repro/internal/faultinject"
	"repro/internal/monitor"
	"repro/internal/simnet"
	"repro/internal/telephony"
	"repro/internal/trace"
)

// PolicyMode selects the fleet-wide RAT selection policy.
type PolicyMode int

// Policy modes.
const (
	// PolicyVanilla runs each device's stock policy: Android9Policy on
	// Android 9 models, Android10Policy (blind 5G preference) on
	// Android 10 models. This is the measurement-study configuration.
	PolicyVanilla PolicyMode = iota
	// PolicyStability runs the paper's stability-compatible RAT
	// transition enhancement on every device.
	PolicyStability
	// PolicyNever5G is an ablation that refuses 5G entirely.
	PolicyNever5G
)

func (p PolicyMode) String() string {
	switch p {
	case PolicyVanilla:
		return "vanilla"
	case PolicyStability:
		return "stability-compatible"
	case PolicyNever5G:
		return "never-5g"
	default:
		return "?"
	}
}

// Scenario configures one fleet run.
type Scenario struct {
	// Seed makes the run reproducible.
	Seed int64
	// NumDevices is the fleet size (the paper had 70M; thousands are
	// enough to reproduce every distribution shape).
	NumDevices int
	// Window is the measurement window (default: the paper's 8 months).
	Window time.Duration
	// NumBS is the deployment size (default NumDevices/2, min 200).
	NumBS int
	// Policy selects the RAT policy variant.
	Policy PolicyMode
	// Trigger is the Data_Stall recovery trigger (default: vanilla
	// Android's one-minute FixedTrigger; the TIMP enhancement passes a
	// ProfileTrigger).
	Trigger android.Trigger
	// DualConnectivity enables 4G/5G dual connectivity on 5G models.
	DualConnectivity bool
	// Workers shards devices across goroutines (default GOMAXPROCS-ish 4).
	Workers int
	// Calibration overrides generator parameters (zero value: defaults).
	Calibration *Calibration
	// UploadAddr, when set, makes each shard upload its events to a
	// trace.Collector at this address over TCP instead of appending to
	// the in-memory dataset directly.
	UploadAddr string
	// UploadRouter, when set, routes each shard uploader by device ID
	// instead of the fixed UploadAddr: the initial target comes from the
	// router, and the uploader re-resolves on wrong-collector redirects
	// — the hook that points a Scenario at a collector fleet (see
	// internal/trace/ring). Takes precedence over UploadAddr.
	UploadRouter trace.TargetRouter
	// DisableFPFilter turns off the monitor's false-positive filtering
	// (ablation: measures dataset pollution without §2.2's filters).
	DisableFPFilter bool
	// Faults superimposes a deterministic fault campaign — BS blackouts
	// and flaps, RSS degradation windows, control-plane error storms, RAT
	// downgrades, stall storms — on the generated environment. Nil runs
	// the calm calibrated environment; see internal/faultinject. A
	// regional outage (a BS "in disrepair", §3.1's long-neglected
	// infrastructure) is a stall-storm rule with a region selector.
	Faults *faultinject.Campaign
}

// EightMonths is the paper's measurement window (Jan.-Aug. 2020).
const EightMonths = 8 * 30 * 24 * time.Hour

// maxEventsPerDevice caps runaway heavy-tail devices at the paper's
// observed maximum (198,228), rounded up.
const maxEventsPerDevice = 200000

func (s Scenario) withDefaults() Scenario {
	if s.NumDevices <= 0 {
		s.NumDevices = 2000
	}
	if s.Window <= 0 {
		s.Window = EightMonths
	}
	if s.NumBS <= 0 {
		s.NumBS = s.NumDevices / 2
		if s.NumBS < 200 {
			s.NumBS = 200
		}
	}
	if s.Trigger == nil {
		s.Trigger = android.DefaultFixedTrigger
	}
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.Calibration == nil {
		c := DefaultCalibration()
		s.Calibration = &c
	}
	return s
}

// checkUploads refuses network-fault rules with nothing uploading: they
// would fault no upload, and the run would report injected=0 as if the
// campaign had been tried.
func (s Scenario) checkUploads() error {
	if s.Faults.HasNetworkRules() && s.UploadAddr == "" && s.UploadRouter == nil {
		return fmt.Errorf("fleet: campaign %q has network-fault rules but nothing uploads", s.Faults.Name)
	}
	return nil
}

// Normalized returns the scenario with all defaults applied — the exact
// configuration Run will execute. Front-ends use it to report true device
// counts and windows instead of zero-valued config fields.
func (s Scenario) Normalized() Scenario { return s.withDefaults() }

// Patched returns a copy of the scenario with both §4.2 enhancements
// enabled: the stability-compatible RAT policy with dual connectivity and
// the TIMP-based recovery trigger.
func (s Scenario) Patched(trigger android.ProfileTrigger) Scenario {
	s.Policy = PolicyStability
	s.DualConnectivity = true
	s.Trigger = trigger
	return s
}

// ratIdx indexes arrays by RAT (0 = unknown, 1..4 = 2G..5G).
const numRATIdx = 5

// TransitionMatrix accumulates RAT-transition exposures and transition-
// induced failures per (fromRAT, fromLevel) → (toRAT, toLevel) — the raw
// material of Figure 17.
type TransitionMatrix struct {
	Exposure [numRATIdx][telephony.NumSignalLevels][numRATIdx][telephony.NumSignalLevels]int64
	Failures [numRATIdx][telephony.NumSignalLevels][numRATIdx][telephony.NumSignalLevels]int64
}

// Add accumulates other into m.
func (m *TransitionMatrix) Add(other *TransitionMatrix) {
	for a := 0; a < numRATIdx; a++ {
		for b := 0; b < telephony.NumSignalLevels; b++ {
			for c := 0; c < numRATIdx; c++ {
				for d := 0; d < telephony.NumSignalLevels; d++ {
					m.Exposure[a][b][c][d] += other.Exposure[a][b][c][d]
					m.Failures[a][b][c][d] += other.Failures[a][b][c][d]
				}
			}
		}
	}
}

// FailureRate returns failures per exposure for a transition, and whether
// the transition was observed at all.
func (m *TransitionMatrix) FailureRate(fromRAT telephony.RAT, fromLvl telephony.SignalLevel, toRAT telephony.RAT, toLvl telephony.SignalLevel) (float64, bool) {
	e := m.Exposure[fromRAT][fromLvl][toRAT][toLvl]
	if e == 0 {
		return 0, false
	}
	return float64(m.Failures[fromRAT][fromLvl][toRAT][toLvl]) / float64(e), true
}

// DwellStats accumulates connected time and device exposure per RAT and
// signal level — the denominators of the normalized prevalence in
// Figures 15 and 16.
type DwellStats struct {
	// Seconds of connected time by [RAT][level].
	Seconds [numRATIdx][telephony.NumSignalLevels]float64
	// DevicesExposed counts devices that dwelled at [RAT][level].
	DevicesExposed [numRATIdx][telephony.NumSignalLevels]int64
	// DevicesOnRAT counts devices that ever camped on each RAT.
	DevicesOnRAT [numRATIdx]int64
	// DevicesOnBSRAT counts devices that ever camped on a BS supporting
	// each RAT (Figure 14's denominator).
	DevicesOnBSRAT [numRATIdx]int64
}

// Add accumulates other into d.
func (d *DwellStats) Add(other *DwellStats) {
	for a := 0; a < numRATIdx; a++ {
		d.DevicesOnRAT[a] += other.DevicesOnRAT[a]
		d.DevicesOnBSRAT[a] += other.DevicesOnBSRAT[a]
		for b := 0; b < telephony.NumSignalLevels; b++ {
			d.Seconds[a][b] += other.Seconds[a][b]
			d.DevicesExposed[a][b] += other.DevicesExposed[a][b]
		}
	}
}

// Population records fleet composition — the denominators for prevalence
// computations.
type Population struct {
	Total    int
	ByModel  [35]int // 1-based model IDs
	ByISP    [simnet.NumISPs]int
	FiveG    int
	Android9 int
	// Android10No5G counts Android 10 devices without 5G hardware (the
	// paper's footnote-4 fair-comparison group).
	Android10No5G int
}

// Add accumulates other into p.
func (p *Population) Add(other *Population) {
	p.Total += other.Total
	p.FiveG += other.FiveG
	p.Android9 += other.Android9
	p.Android10No5G += other.Android10No5G
	for i := range p.ByModel {
		p.ByModel[i] += other.ByModel[i]
	}
	for i := range p.ByISP {
		p.ByISP[i] += other.ByISP[i]
	}
}

// OverheadSummary aggregates per-device monitoring overheads.
type OverheadSummary struct {
	Devices int
	// CPUUtilizationSum adds up each device's CPU utilization; divide by
	// Devices with MeanCPUUtilization.
	CPUUtilizationSum float64
	MaxCPUUtilization float64
	MaxMemoryBytes    int64
	MaxStorageBytes   int64
	MaxNetworkBytes   int64
	TotalNetworkBytes int64
}

// MeanCPUUtilization is the mean of the devices' CPU utilizations.
func (o *OverheadSummary) MeanCPUUtilization() float64 {
	if o.Devices == 0 {
		return 0
	}
	return o.CPUUtilizationSum / float64(o.Devices)
}

// Add accumulates other into o.
func (o *OverheadSummary) Add(other *OverheadSummary) {
	o.Devices += other.Devices
	o.CPUUtilizationSum += other.CPUUtilizationSum
	o.MaxCPUUtilization = max(o.MaxCPUUtilization, other.MaxCPUUtilization)
	o.MaxMemoryBytes = max(o.MaxMemoryBytes, other.MaxMemoryBytes)
	o.MaxStorageBytes = max(o.MaxStorageBytes, other.MaxStorageBytes)
	o.MaxNetworkBytes = max(o.MaxNetworkBytes, other.MaxNetworkBytes)
	o.TotalNetworkBytes += other.TotalNetworkBytes
}

// IntegrityReport checks, after the clock drains, that every device ended
// the run inside the Figure-1 state machine: the data connection parked in
// Inactive or Active, no setup episode still in flight. OpenEpisodes
// counts devices whose current episode (stall or Out_of_Service) was still
// running when the window closed — legal for organic heavy-tail episodes,
// which can outlast the run, so it is informational rather than a wedge.
type IntegrityReport struct {
	// Wedged counts devices whose DataConnection finished outside
	// {Inactive, Active} — a state-machine leak.
	Wedged int
	// OpenSetups counts devices with a setup episode that never concluded.
	OpenSetups int
	// OpenEpisodes counts devices still busy with a stall/OOS episode.
	OpenEpisodes int
}

// Add accumulates other into r.
func (r *IntegrityReport) Add(other *IntegrityReport) {
	r.Wedged += other.Wedged
	r.OpenSetups += other.OpenSetups
	r.OpenEpisodes += other.OpenEpisodes
}

// Clean reports whether every device ended inside the state machine.
func (r *IntegrityReport) Clean() bool { return r.Wedged == 0 && r.OpenSetups == 0 }

// Context is what a run's figures divide its failure counts by: the
// phone population, transition exposure, dwell time, the deployment's
// stations per RAT, and the monitors' own counters and overhead. Every
// part but StationsPerRAT is a sum or a max over devices, so contexts add
// up in any order.
type Context struct {
	Population  Population
	Transitions TransitionMatrix
	Dwell       DwellStats
	// StationsPerRAT counts the stations offering each RAT, indexed by RAT
	// (Figure 14's BS column). It describes the deployment, not a device,
	// so Add leaves it alone.
	StationsPerRAT [telephony.RAT5G + 1]int64
	Monitor        monitor.Stats
	Overhead       OverheadSummary
}

// Add accumulates other's device aggregates into c.
func (c *Context) Add(other *Context) {
	c.Population.Add(&other.Population)
	c.Transitions.Add(&other.Transitions)
	c.Dwell.Add(&other.Dwell)
	c.Monitor.Add(&other.Monitor)
	c.Overhead.Add(&other.Overhead)
}

// Result is a completed fleet run.
type Result struct {
	Scenario Scenario
	Dataset  *trace.Dataset
	Context
	// Integrity is the post-run state-machine check over all devices.
	Integrity IntegrityReport
	// Faults is the campaign execution report (nil for calm runs).
	Faults *faultinject.Report
	// RecordedDigest summarizes, for uploading runs, the multiset of
	// events the device fleet recorded before the network could lose or
	// duplicate anything. Comparing it and Monitor.Recorded against the
	// collector dataset's MultisetDigest/Len is the chaos invariant I4:
	// ingestion is exactly-once end to end.
	RecordedDigest trace.Digest
	// Provenance says where a loaded result came from: how the run was
	// produced and what the directory held (set by LoadContext and
	// ReadRun; empty on a fresh run).
	Provenance string
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("fleet run: %d devices, %d BSes, %d events (policy=%v trigger=%s)",
		r.Population.Total, r.Scenario.NumBS, r.Monitor.Recorded,
		r.Scenario.Policy, r.Scenario.Trigger.Name())
}
