// Package analysis recomputes every table and figure of the paper's
// evaluation from a collected failure dataset. It never reads the fleet
// generator's calibration: prevalence, frequency, durations, shares and
// correlations are all derived from events, population denominators, dwell
// accounting and the per-RAT station counts, so a run of the pipeline
// validates the whole measurement stack end to end.
//
// A figure comes from a Pass, and a batch Pass is a merge of folds
// (pass.go): a Fold fills every figure's accumulator from one contiguous
// run of events, keeping none, and folds merge in run order, so the result
// is bit-identical to one sequential scan. NewPass folds a dataset's runs
// on every core, Simulate each fleet worker's events as they are recorded,
// and a lone Fold a stream (a run directory as it is read); the live
// engine (streaming.go) renders from one cumulative visitor set instead.
// The Pass methods, the report, the claims and the guidelines only read
// the accumulators.
package analysis

import (
	"time"

	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/monitor"
	"repro/internal/stats"
	"repro/internal/telephony"
	"repro/internal/trace"
)

// Input is a dataset and the run context its figures divide by. The zero
// context is an empty one: denominator-based figures read as zero.
type Input struct {
	Dataset *trace.Dataset
	fleet.Context
}

// FromResult adapts a fleet result.
func FromResult(res *fleet.Result) Input { return Input{Dataset: res.Dataset, Context: res.Context} }

// Simulate runs s with one fold as each worker's sink (fleet.RunInto) and
// merges them in worker order, which is device order: the Pass equals
// NewPass(FromResult(fleet.Run(s))) to the bit, and no event is kept. A
// scenario that uploads is refused.
func Simulate(s fleet.Scenario) (*fleet.Result, *Pass, error) {
	var folds []*Fold
	res, err := fleet.RunInto(s, func() monitor.Sink {
		f := NewFold()
		folds = append(folds, f)
		return func(e failure.Event) {
			if f.v.dev.dense == nil { // a worker's devices come in order: index from its first
				f.v.dev.base = e.DeviceID
			}
			f.v.Visit(&e)
			f.visited++
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return res, merge(&Input{res.Dataset, res.Context}, folds), nil
}

// GroupStats is the prevalence/frequency pair the paper reports for a
// device group.
type GroupStats struct {
	Name       string  `json:"name"`
	Devices    int     `json:"devices"`
	Failing    int     `json:"failing"`
	Events     int     `json:"events"`
	Prevalence float64 `json:"prevalence"`
	Frequency  float64 `json:"frequency"`
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
	ModelID         int     `json:"model_id"`
	FiveG           bool    `json:"five_g"`
	Android         int     `json:"android"`
	Devices         int     `json:"devices"`
	Prevalence      float64 `json:"prevalence"`
	Frequency       float64 `json:"frequency"`
	PaperPrevalence float64 `json:"paper_prevalence"`
	PaperFrequency  float64 `json:"paper_frequency"`
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
	Cause       telephony.FailCause `json:"cause"`
	Name        string              `json:"name"`
	Description string              `json:"-"`
	Share       float64             `json:"share"`       // fraction of Data_Setup_Error events
	PaperShare  float64             `json:"paper_share"` // Table 2's published share (0 if outside top 10)
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
