// Package cellrel is a Go reproduction of "A Nationwide Study on Cellular
// Reliability: Measurement, Analysis, and Enhancements" (SIGCOMM 2021).
//
// The library rebuilds every system the paper describes or depends on:
//
//   - the Android-like cellular connection management internals — the
//     data-connection state machine, RAT selection policies (Android 9,
//     Android 10's blind 5G preference, and the paper's
//     stability-compatible enhancement), the Data_Stall detector, and the
//     three-stage progressive recovery engine with pluggable probation
//     triggers;
//   - Android-MOD, the monitoring infrastructure: failure capture with
//     in-situ radio context, false-positive filtering, and the
//     ICMP/DNS probing component that measures stall durations to within
//     five seconds;
//   - a simulated nationwide radio environment (three ISPs, Zipf-loaded
//     multi-RAT base stations, signal model, transport-hub interference)
//     and a discrete-event fleet of Table-1 phones standing in for the
//     paper's 70M-device deployment;
//   - the trace pipeline (binary v3 event batches over TCP to a collector);
//   - the analysis suite that recomputes every table and figure; and
//   - the enhancements: the stability-compatible RAT transition policy
//     with 4G/5G dual connectivity, and the TIMP (time-inhomogeneous
//     Markov process) recovery model optimized with simulated annealing.
//
// Quick start:
//
//	study := cellrel.Study{Scenario: cellrel.Scenario{Seed: 1, NumDevices: 2000}}
//	m, _ := study.Measure() // m.Pass holds every §3 figure, from one sweep
//	fmt.Println(cellrel.RenderClaims(m.Pass.Claims()))
//	opt, _ := cellrel.OptimizeRecovery(m, 2)
//	enh, _ := cellrel.EvaluateEnhancements(m, opt.Trigger)
//	fmt.Println(cellrel.RenderEnhancement(enh.Report))
package cellrel

import (
	"repro/internal/analysis"
	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// Scenario configures a fleet run; see fleet.Scenario for every knob.
type Scenario = fleet.Scenario

// Result is a completed fleet run.
type Result = fleet.Result

// Study runs the reproduction pipeline.
type Study = core.Study

// MeasurementResult is the §3 measurement outcome.
type MeasurementResult = core.MeasurementResult

// RecoveryOptimization is the fitted-and-annealed TIMP outcome.
type RecoveryOptimization = core.RecoveryOptimization

// EnhancementResult is the §4.3 A/B evaluation outcome.
type EnhancementResult = core.EnhancementResult

// EnhancementReport summarizes the patched-vs-vanilla comparison.
type EnhancementReport = analysis.EnhancementReport

// Input is an analysis-ready view of a fleet run.
type Input = analysis.Input

// Pass is one analysis sweep over a dataset; every table, figure, claim
// and guideline is a method on it.
type Pass = analysis.Pass

// Dataset stores collected failure events.
type Dataset = trace.Dataset

// ProfileTrigger is a per-stage probation trigger for the recovery engine.
type ProfileTrigger = android.ProfileTrigger

// Policy modes for Scenario.Policy.
const (
	PolicyVanilla   = fleet.PolicyVanilla
	PolicyStability = fleet.PolicyStability
	PolicyNever5G   = fleet.PolicyNever5G
)

// EightMonths is the paper's measurement window.
const EightMonths = fleet.EightMonths

// PaperTIMPTrigger is the probation profile the paper deployed:
// 21 s, 6 s, 16 s.
var PaperTIMPTrigger = android.PaperTIMPTrigger

// DefaultFixedTrigger is vanilla Android's one-minute trigger.
var DefaultFixedTrigger = android.DefaultFixedTrigger

// Run executes a fleet scenario (measurement only).
func Run(s Scenario) (*Result, error) { return fleet.Run(s) }

// FromResult adapts a fleet result for analysis.
func FromResult(res *Result) Input { return analysis.FromResult(res) }

// NewPass sweeps the input's dataset once.
func NewPass(in Input) *Pass { return analysis.NewPass(in) }

// OptimizeRecovery fits TIMP to measured stall self-recovery times and
// anneals the probation triple (§4.2).
func OptimizeRecovery(m *MeasurementResult, seed int64) (*RecoveryOptimization, error) {
	return core.OptimizeRecovery(m, seed)
}

// EvaluateEnhancements runs the patched fleet and compares (§4.3).
func EvaluateEnhancements(m *MeasurementResult, trigger ProfileTrigger) (*EnhancementResult, error) {
	return core.EvaluateEnhancements(m, trigger)
}

// FullPipeline is measure → optimize → evaluate in one call.
func FullPipeline(s Scenario) (*MeasurementResult, *RecoveryOptimization, *EnhancementResult, error) {
	return core.FullPipeline(s)
}

// Catalogue returns the Table-1 phone model catalogue.
func Catalogue() []analysis.ModelCatalogueEntry { return core.Catalogue() }

// RenderEnhancement formats an enhancement report for a terminal.
func RenderEnhancement(rep EnhancementReport) string { return analysis.RenderEnhancement(rep) }

// RenderGuidelines formats recommendations for a terminal.
func RenderGuidelines(gs []analysis.Guideline) string { return analysis.RenderGuidelines(gs) }

// RenderClaims formats a claim scorecard for a terminal.
func RenderClaims(rs []analysis.ClaimResult) string { return analysis.RenderClaims(rs) }
