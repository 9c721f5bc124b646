// Package core ties the reproduction together: it runs the nationwide
// measurement study (fleet simulation standing in for the paper's 70M
// devices), analyzes the collected dataset into every table and figure,
// fits the TIMP recovery model to the measured Data_Stall self-recovery
// times and searches the optimal probation triple with simulated
// annealing, and evaluates the two deployed enhancements A/B — exactly the
// §2 → §3 → §4 pipeline of the paper.
package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/android"
	"repro/internal/anneal"
	"repro/internal/device"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/timp"
)

// Study is a configured reproduction run.
type Study struct {
	// Scenario is the fleet configuration; zero values take defaults.
	Scenario fleet.Scenario
}

// MeasurementResult is the outcome of the §3 measurement phase: the run,
// and the one analysis pass over its dataset that every later stage reads.
type MeasurementResult struct {
	Fleet *fleet.Result
	Pass  *analysis.Pass
}

// Measure runs the continuous-monitoring fleet under vanilla Android
// behaviour (the paper's Jan.–Aug. 2020 study).
func (s Study) Measure() (*MeasurementResult, error) {
	res, pass, err := analysis.Simulate(s.Scenario)
	if err != nil {
		return nil, fmt.Errorf("core: measurement run: %w", err)
	}
	return &MeasurementResult{Fleet: res, Pass: pass}, nil
}

// Catalogue exposes the Table 1 model catalogue in the analysis package's
// terms.
func Catalogue() []analysis.ModelCatalogueEntry {
	out := make([]analysis.ModelCatalogueEntry, 0, device.NumModels)
	for _, m := range device.Models() {
		out = append(out, analysis.ModelCatalogueEntry{
			ID: m.ID, CPUGHz: m.CPUGHz, MemoryGB: m.MemoryGB, StorageGB: m.StorageGB,
			FiveG: m.FiveG, Android: m.Android,
			Prevalence: m.Prevalence, Frequency: m.Frequency,
		})
	}
	return out
}

// RecoveryOptimization is the outcome of fitting TIMP to measured stall
// data and searching for the optimal probations (§4.2).
type RecoveryOptimization struct {
	Result timp.OptimizeResult
	// Trigger is the optimized probation trigger, ready to deploy.
	Trigger android.ProfileTrigger
	// Samples is the number of self-recovery duration samples used.
	Samples int
}

// OptimizeRecovery fits the TIMP model to the measurement's Data_Stall
// self-recovery times (measured by the Android-MOD probing component) and
// anneals the probation triple. The paper's dataset yielded
// (21 s, 6 s, 16 s) with an expected recovery time of 27.8 s versus 38 s
// for the one-minute default.
func OptimizeRecovery(m *MeasurementResult, seed int64) (*RecoveryOptimization, error) {
	samples := m.Pass.AutoFixSeconds()
	// Fit against the *measured* operation effectiveness, exactly as the
	// paper estimated its 75% first-stage fix rate from its dataset.
	opts := timp.DefaultOptions()
	est := m.Pass.EstimateOpSuccess()
	for i := 0; i < 3; i++ {
		if est.Executions[i] >= 50 && est.Rates[i] > 0 {
			opts.OpSuccess[i] = est.Rates[i]
		}
	}
	model, err := timp.New(samples, opts)
	if err != nil {
		return nil, fmt.Errorf("core: fit TIMP model: %w", err)
	}
	res := model.Optimize(rng.New(seed), anneal.Config{})
	var trig android.ProfileTrigger
	d := res.Probations.Durations()
	copy(trig[:], d[:])
	return &RecoveryOptimization{Result: res, Trigger: trig, Samples: len(samples)}, nil
}

// EnhancementResult is the §4.3 deployment evaluation. PatchedPass is the
// one analysis pass over the patched run's dataset.
type EnhancementResult struct {
	Vanilla     *fleet.Result
	Patched     *fleet.Result
	PatchedPass *analysis.Pass
	Report      analysis.EnhancementReport
}

// EvaluateEnhancements re-runs the fleet with the stability-compatible
// RAT transition policy, 4G/5G dual connectivity and the given recovery
// trigger, and compares against the vanilla measurement.
func EvaluateEnhancements(m *MeasurementResult, trigger android.ProfileTrigger) (*EnhancementResult, error) {
	patched, pass, err := analysis.Simulate(m.Fleet.Scenario.Patched(trigger))
	if err != nil {
		return nil, fmt.Errorf("core: patched run: %w", err)
	}
	return &EnhancementResult{
		Vanilla: m.Fleet, Patched: patched, PatchedPass: pass,
		Report: analysis.CompareEnhancement(m.Pass, pass),
	}, nil
}

// FullPipeline runs measure → optimize → evaluate with one call, the
// complete reproduction loop.
func FullPipeline(scenario fleet.Scenario) (*MeasurementResult, *RecoveryOptimization, *EnhancementResult, error) {
	study := Study{Scenario: scenario}
	m, err := study.Measure()
	if err != nil {
		return nil, nil, nil, err
	}
	opt, err := OptimizeRecovery(m, scenario.Seed+1)
	if err != nil {
		return m, nil, nil, err
	}
	enh, err := EvaluateEnhancements(m, opt.Trigger)
	if err != nil {
		return m, opt, nil, err
	}
	return m, opt, enh, nil
}

// CheckOverhead checks a run's per-phone overhead against the paper's
// budgets over the run's own window.
func CheckOverhead(res *fleet.Result) analysis.OverheadReport {
	o := res.Overhead
	return analysis.CheckOverhead(o.MeanCPUUtilization(), o.MaxCPUUtilization,
		o.MaxMemoryBytes, o.MaxStorageBytes, o.MaxNetworkBytes, runMonths(res))
}

// runMonths is a run's window in 30-day months.
func runMonths(res *fleet.Result) float64 { return res.Scenario.Window.Hours() / 24 / 30 }

// BuildReport assembles the paper-vs-measured report of a finished
// pipeline from the two passes it already holds.
func BuildReport(m *MeasurementResult, opt *RecoveryOptimization, enh *EnhancementResult) *analysis.Report {
	months := runMonths(m.Fleet)
	overhead := CheckOverhead(m.Fleet)

	fpClasses := map[string]int{}
	for c := failure.FalsePositiveClass(1); c < failure.NumFalsePositiveClasses; c++ {
		fpClasses[c.String()] = m.Fleet.Monitor.ByFPClass[c]
	}

	return analysis.BuildReport(m.Pass, enh.PatchedPass, analysis.ReportConfig{
		Devices:   m.Fleet.Scenario.NumDevices,
		Months:    months,
		Seed:      m.Fleet.Scenario.Seed,
		Catalogue: Catalogue(),
		TIMP: &analysis.TIMPSummary{
			Probations:  opt.Result.Probations,
			Cost:        opt.Result.Cost,
			DefaultCost: opt.Result.DefaultCost,
			Improvement: opt.Result.Improvement(),
			Samples:     opt.Samples,
		},
		Overhead:  &overhead,
		FPClasses: fpClasses,
		Recorded:  m.Fleet.Monitor.Recorded,
	})
}
