// Package analysis recomputes every table and figure of the paper's
// evaluation from a collected failure dataset. It never reads the fleet
// generator's calibration: prevalence, frequency, durations, shares and
// correlations are all derived from events, population denominators, dwell
// accounting and the BS census, so a run of the pipeline validates the
// whole measurement stack end to end.
//
// A figure comes from a Pass: NewPass fills every figure's accumulator in
// one parallel sweep over the dataset (engine.go) — per-worker partials
// merge in run order, so the result is bit-identical to a sequential
// scan — and the Pass methods, the report, the claims and the guidelines
// only read what the sweep left. TimeSeries is the one extraction with a
// sweep of its own: it needs its bucket width before it can scan.
package analysis

import (
	"time"

	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telephony"
	"repro/internal/trace"
)

// Input bundles a fleet run's outputs for analysis.
type Input struct {
	Dataset     *trace.Dataset
	Population  fleet.Population
	Transitions *fleet.TransitionMatrix
	Dwell       *fleet.DwellStats
	Network     *simnet.Network
}

// FromResult adapts a fleet result.
func FromResult(res *fleet.Result) Input {
	return Input{
		Dataset:     res.Dataset,
		Population:  res.Population,
		Transitions: &res.Transitions,
		Dwell:       &res.Dwell,
		Network:     res.Network,
	}
}

// GroupStats is the prevalence/frequency pair the paper reports for a
// device group.
type GroupStats struct {
	Name       string
	Devices    int
	Failing    int
	Events     int
	Prevalence float64
	Frequency  float64
}

func makeGroup(name string, devices, failing, events int) GroupStats {
	g := GroupStats{Name: name, Devices: devices, Failing: failing, Events: events}
	if devices > 0 {
		g.Prevalence = float64(failing) / float64(devices)
		g.Frequency = float64(events) / float64(devices)
	}
	return g
}

// ModelRow is one row of the reproduced Table 1 / Figures 2 and 5.
type ModelRow struct {
	ModelID         int
	FiveG           bool
	Android         int
	Devices         int
	Prevalence      float64
	Frequency       float64
	PaperPrevalence float64
	PaperFrequency  float64
}

// ModelCatalogueEntry mirrors the device catalogue without importing it
// (keeps the analysis decoupled from the generator).
type ModelCatalogueEntry struct {
	ID         int
	CPUGHz     float64
	MemoryGB   int
	StorageGB  int
	FiveG      bool
	Android    int
	Prevalence float64
	Frequency  float64
}

// CauseRow is one row of the reproduced Table 2.
type CauseRow struct {
	Cause       telephony.FailCause
	Name        string
	Description string
	Share       float64 // fraction of Data_Setup_Error events
	PaperShare  float64 // Table 2's published share (0 if outside top 10)
}

// FailuresPerPhone reproduces Figure 3: the distribution of failures per
// device and the per-kind per-capita means (paper: 16 setup, 14 stall,
// 3 OOS, 33 total on average; 77% of phones see none).
type FailuresPerPhone struct {
	CDF         *stats.ECDF
	Mean        float64
	Max         float64
	ZeroShare   float64
	MeanPerKind map[failure.Kind]float64
	// OOSFreeShare is the fraction of phones with no Out_of_Service
	// events (paper: 95%).
	OOSFreeShare float64
}

// DurationStats reproduces Figure 4: the failure-duration distribution.
type DurationStats struct {
	CDF     *stats.ECDF // seconds
	Mean    time.Duration
	Median  time.Duration
	Max     time.Duration
	Under30 float64 // fraction of failures shorter than 30 s (paper: 70.8%)
	// StallShareOfDuration is Data_Stall's share of total failure
	// duration (paper: 94%).
	StallShareOfDuration float64
}
