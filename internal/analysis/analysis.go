// Package analysis recomputes every table and figure of the paper's
// evaluation from a collected failure dataset. It never reads the fleet
// generator's calibration: prevalence, frequency, durations, shares and
// correlations are all derived from events, population denominators, dwell
// accounting and the BS census, so a run of the pipeline validates the
// whole measurement stack end to end.
//
// Figures are computed by a single-pass visitor engine (engine.go): each
// figure registers a streaming Visitor, one parallel sweep per dataset
// shard feeds them all, and per-shard partials merge in shard order so
// results are bit-identical to a sequential scan. The standalone functions
// below each run a one-visitor pass; NewPass fuses all of them into one
// sweep for the report, claims and guidelines layers.
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

// perDevice summarises one device's events.
type perDevice struct {
	modelID int
	fiveG   bool
	android int
	isp     simnet.ISPID
	total   int
	byKind  [failure.NumKinds]int
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

// Table1 recomputes per-model prevalence and frequency and pairs them with
// the paper's Table 1 values.
func Table1(in Input, catalogue []ModelCatalogueEntry) []ModelRow {
	return runOne(in.Dataset, func() *deviceVisitor { return newDeviceVisitor(passHint(in.Dataset)) }).table1(in.Population, catalogue)
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

// Table2 decomposes Data_Setup_Error events by protocol error code and
// returns the topN rows by share.
func Table2(in Input, topN int) []CauseRow {
	return runOne(in.Dataset, newCauseVisitor).table2(topN)
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

// Figure3 computes the failures-per-phone distribution.
func Figure3(in Input) FailuresPerPhone {
	return runOne(in.Dataset, func() *deviceVisitor { return newDeviceVisitor(passHint(in.Dataset)) }).figure3(in.Population)
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

// Figure4 computes the duration distribution over all failures.
func Figure4(in Input) DurationStats {
	hint := passHint(in.Dataset)
	vs := runPass(in.Dataset, func() []Visitor {
		return []Visitor{newDurationVisitor(), newKindDurationVisitor(hint)}
	})
	return vs[0].(*durationVisitor).figure4(vs[1].(*kindDurationVisitor).all())
}

// By5G reproduces Figures 6 and 7: 5G models versus non-5G Android 10
// models (the paper's footnote-4 fair comparison group).
func By5G(in Input) (fiveG, non5G GroupStats) {
	return runOne(in.Dataset, func() *deviceVisitor { return newDeviceVisitor(passHint(in.Dataset)) }).by5G(in.Population)
}

// ByAndroidVersion reproduces Figures 8 and 9: Android 9 versus non-5G
// Android 10.
func ByAndroidVersion(in Input) (android9, android10 GroupStats) {
	return runOne(in.Dataset, func() *deviceVisitor { return newDeviceVisitor(passHint(in.Dataset)) }).byAndroidVersion(in.Population)
}

// ByISP reproduces Figures 12 and 13.
func ByISP(in Input) [simnet.NumISPs]GroupStats {
	return runOne(in.Dataset, func() *deviceVisitor { return newDeviceVisitor(passHint(in.Dataset)) }).byISP(in.Population)
}
