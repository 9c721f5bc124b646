// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
//
// Each experiment benchmark reports the paper-relevant metric via
// b.ReportMetric alongside the usual ns/op of regenerating it — one
// analysis.NewPass sweep plus the extraction; the fleet datasets are
// simulated once per process and shared.
//
//	go test -bench=. -benchmem
package cellrel

import (
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/android"
	"repro/internal/anneal"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/telephony"
	"repro/internal/timp"
)

var (
	benchOnce    sync.Once
	benchVanilla *fleet.Result
	benchPatched *fleet.Result
	benchIn      analysis.Input
	benchPatIn   analysis.Input
)

const benchDevices = 3000

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		base := fleet.Scenario{Seed: 7, NumDevices: benchDevices, Workers: 8}
		var err error
		benchVanilla, err = fleet.Run(base)
		if err != nil {
			panic(err)
		}
		benchPatched, err = fleet.Run(base.Patched(android.PaperTIMPTrigger))
		if err != nil {
			panic(err)
		}
		benchIn = analysis.FromResult(benchVanilla)
		benchPatIn = analysis.FromResult(benchPatched)
	})
	b.ResetTimer()
}

// --- Tables ---------------------------------------------------------------

// BenchmarkTable1ModelCatalogue regenerates Table 1 (per-model prevalence
// and frequency) and reports the fleet-weighted prevalence.
func BenchmarkTable1ModelCatalogue(b *testing.B) {
	benchSetup(b)
	var rows []analysis.ModelRow
	for i := 0; i < b.N; i++ {
		rows = analysis.NewPass(benchIn).Table1(Catalogue())
	}
	var prev float64
	for _, r := range rows {
		prev += r.Prevalence * float64(r.Devices)
	}
	b.ReportMetric(prev/float64(benchVanilla.Population.Total)*100, "prevalence_%")
}

// BenchmarkTable2ErrorCodes regenerates Table 2 and reports the top-10
// share (paper: 46.7%).
func BenchmarkTable2ErrorCodes(b *testing.B) {
	benchSetup(b)
	var rows []analysis.CauseRow
	for i := 0; i < b.N; i++ {
		rows = analysis.NewPass(benchIn).Table2(10)
	}
	var share float64
	for _, r := range rows {
		share += r.Share
	}
	b.ReportMetric(share*100, "top10_share_%")
}

// --- Figures ----------------------------------------------------------------

// BenchmarkFigure2Prevalence regenerates the per-model prevalence bars.
func BenchmarkFigure2Prevalence(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		_ = analysis.NewPass(benchIn).Table1(Catalogue())
	}
}

// BenchmarkFigure3FailuresPerPhone reports the mean failures per phone
// (paper: 33).
func BenchmarkFigure3FailuresPerPhone(b *testing.B) {
	benchSetup(b)
	var f analysis.FailuresPerPhone
	for i := 0; i < b.N; i++ {
		f = analysis.NewPass(benchIn).Figure3()
	}
	b.ReportMetric(f.Mean, "failures/phone")
	b.ReportMetric(f.ZeroShare*100, "failure_free_%")
}

// BenchmarkFigure4Duration reports the share of failures under 30 s
// (paper: 70.8%).
func BenchmarkFigure4Duration(b *testing.B) {
	benchSetup(b)
	var d analysis.DurationStats
	for i := 0; i < b.N; i++ {
		d = analysis.NewPass(benchIn).Figure4()
	}
	b.ReportMetric(d.Under30*100, "under30s_%")
	b.ReportMetric(d.Mean.Seconds(), "mean_s")
}

// BenchmarkFigure5Frequency regenerates the per-model frequency bars.
func BenchmarkFigure5Frequency(b *testing.B) {
	benchSetup(b)
	var rows []analysis.ModelRow
	for i := 0; i < b.N; i++ {
		rows = analysis.NewPass(benchIn).Table1(Catalogue())
	}
	var freq float64
	for _, r := range rows {
		freq += r.Frequency * float64(r.Devices)
	}
	b.ReportMetric(freq/float64(benchVanilla.Population.Total), "failures/phone")
}

// BenchmarkFigure6And7FiveG reports the 5G/non-5G frequency ratio
// (paper: 5G clearly higher).
func BenchmarkFigure6And7FiveG(b *testing.B) {
	benchSetup(b)
	var fiveG, non5G analysis.GroupStats
	for i := 0; i < b.N; i++ {
		fiveG, non5G = analysis.NewPass(benchIn).By5G()
	}
	b.ReportMetric(fiveG.Frequency/non5G.Frequency, "5g_freq_ratio")
}

// BenchmarkFigure8And9AndroidVersion reports the Android 10/9 frequency
// ratio (paper: 10 clearly higher).
func BenchmarkFigure8And9AndroidVersion(b *testing.B) {
	benchSetup(b)
	var a9, a10 analysis.GroupStats
	for i := 0; i < b.N; i++ {
		a9, a10 = analysis.NewPass(benchIn).ByAndroidVersion()
	}
	b.ReportMetric(a10.Frequency/a9.Frequency, "a10_freq_ratio")
}

// BenchmarkFigure10StallAutoFix reports the 10-second self-fix fraction
// (paper: 60%).
func BenchmarkFigure10StallAutoFix(b *testing.B) {
	benchSetup(b)
	var f analysis.StallAutoFix
	for i := 0; i < b.N; i++ {
		f = analysis.NewPass(benchIn).Figure10()
	}
	b.ReportMetric(f.Under10*100, "fixed_in_10s_%")
	b.ReportMetric(f.FirstOpFixRate*100, "op1_fix_%")
}

// BenchmarkFigure11BSRanking reports the fitted Zipf exponent
// (paper: a = 0.82 at 5.3M BSes; steeper at simulation scale).
func BenchmarkFigure11BSRanking(b *testing.B) {
	benchSetup(b)
	var r analysis.BSRanking
	for i := 0; i < b.N; i++ {
		r = analysis.NewPass(benchIn).Figure11(100)
	}
	b.ReportMetric(r.Fit.A, "zipf_a")
}

// BenchmarkFigure12And13ISP reports ISP-B's prevalence lead over ISP-C
// (paper: 27.1% vs 14.7%).
func BenchmarkFigure12And13ISP(b *testing.B) {
	benchSetup(b)
	var g [3]analysis.GroupStats
	for i := 0; i < b.N; i++ {
		g = analysis.NewPass(benchIn).ByISP()
	}
	b.ReportMetric(g[1].Prevalence/g[2].Prevalence, "B_over_C_prevalence")
}

// BenchmarkFigure14RAT reports 3G's failure-rate discount versus 4G
// (paper: 3G lowest).
func BenchmarkFigure14RAT(b *testing.B) {
	benchSetup(b)
	var rows []analysis.RATPrevalence
	for i := 0; i < b.N; i++ {
		rows = analysis.NewPass(benchIn).Figure14()
	}
	byRAT := map[telephony.RAT]float64{}
	for _, r := range rows {
		byRAT[r.RAT] = r.Prevalence
	}
	b.ReportMetric(byRAT[telephony.RAT3G]/byRAT[telephony.RAT4G], "3g_over_4g_rate")
}

// BenchmarkFigure15SignalLevel reports the level-5 anomaly magnitude:
// normalized prevalence at level 5 over level 4 (paper: >1).
func BenchmarkFigure15SignalLevel(b *testing.B) {
	benchSetup(b)
	var levels [telephony.NumSignalLevels]analysis.LevelPrevalence
	for i := 0; i < b.N; i++ {
		levels = analysis.NewPass(benchIn).Figure15()
	}
	b.ReportMetric(levels[5].Normalized/levels[4].Normalized, "lvl5_over_lvl4")
}

// BenchmarkFigure16RATSignal regenerates the per-RAT signal-level panels.
func BenchmarkFigure16RATSignal(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		pass := analysis.NewPass(benchIn)
		_ = pass.Figure16(telephony.RAT4G)
		_ = pass.Figure16(telephony.RAT5G)
	}
}

// BenchmarkFigure17Transitions regenerates all six transition panels and
// reports the worst 4G→5G increase (paper: +0.37 into level 0).
func BenchmarkFigure17Transitions(b *testing.B) {
	benchSetup(b)
	var panel analysis.TransitionIncrease
	for i := 0; i < b.N; i++ {
		pass := analysis.NewPass(benchIn)
		for _, pair := range analysis.Figure17Pairs() {
			p := pass.Figure17(pair[0], pair[1])
			if pair[0] == telephony.RAT4G && pair[1] == telephony.RAT5G {
				panel = p
			}
		}
	}
	worst := 0.0
	for i := 0; i < telephony.NumSignalLevels; i++ {
		if panel.Observed[i][0] && panel.Increase[i][0] > worst {
			worst = panel.Increase[i][0]
		}
	}
	b.ReportMetric(worst, "worst_4g_to_5g_lvl0")
}

// BenchmarkTIMPOptimization fits the TIMP model to the measured stall
// self-recovery times and anneals the probation triple (Figure 18/Eq. 1).
func BenchmarkTIMPOptimization(b *testing.B) {
	benchSetup(b)
	samples := analysis.NewPass(benchIn).AutoFixSeconds()
	b.ResetTimer()
	var res timp.OptimizeResult
	for i := 0; i < b.N; i++ {
		model, err := timp.New(samples, timp.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		res = model.Optimize(rng.New(int64(i)), anneal.Config{Iterations: 8000, Restarts: 2})
	}
	b.ReportMetric(res.Probations[0], "pro0_s")
	b.ReportMetric(res.Improvement()*100, "improvement_%")
}

// BenchmarkFigure19And20RATEnhancement reports the 5G failure-frequency
// reduction from the stability-compatible policy (paper: −40.3%).
func BenchmarkFigure19And20RATEnhancement(b *testing.B) {
	benchSetup(b)
	var rep analysis.EnhancementReport
	for i := 0; i < b.N; i++ {
		rep = analysis.CompareEnhancement(analysis.NewPass(benchIn), analysis.NewPass(benchPatIn))
	}
	b.ReportMetric(rep.FiveGFrequencyChange*100, "5g_freq_change_%")
	b.ReportMetric(rep.FiveGPrevalenceChange*100, "5g_prev_change_%")
}

// BenchmarkFigure21RecoveryEnhancement reports the Data_Stall duration
// reduction from the TIMP trigger (paper: −38%).
func BenchmarkFigure21RecoveryEnhancement(b *testing.B) {
	benchSetup(b)
	var rep analysis.EnhancementReport
	for i := 0; i < b.N; i++ {
		rep = analysis.CompareEnhancement(analysis.NewPass(benchIn), analysis.NewPass(benchPatIn))
	}
	b.ReportMetric(rep.StallDurationChange*100, "stall_dur_change_%")
	b.ReportMetric(rep.TotalDurationChange*100, "total_dur_change_%")
}

// BenchmarkMonitorOverhead reports the monitoring CPU utilization within
// failures (paper budget: <2%).
func BenchmarkMonitorOverhead(b *testing.B) {
	benchSetup(b)
	var rep analysis.OverheadReport
	for i := 0; i < b.N; i++ {
		o := benchVanilla.Overhead
		rep = analysis.CheckOverhead(o.MeanCPUUtilization(), o.MaxCPUUtilization,
			o.MaxMemoryBytes, o.MaxStorageBytes, o.MaxNetworkBytes, 8)
	}
	b.ReportMetric(rep.MeanCPUUtilization*100, "mean_cpu_%")
	b.ReportMetric(rep.MaxCPUUtilization*100, "max_cpu_%")
}

// --- Simulation throughput ---------------------------------------------------

// BenchmarkFleetSimulation measures raw simulation throughput: one
// device-month of virtual time per op.
func BenchmarkFleetSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.Run(fleet.Scenario{
			Seed: int64(i), NumDevices: 200, Workers: 4,
			Window: 30 * 24 * time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// --- Ablations ----------------------------------------------------------------

// BenchmarkAblationProbation sweeps probation triples through the fitted
// TIMP model, reporting the expected recovery cost for the vanilla
// one-minute trigger, the paper's triple, and zero probations.
func BenchmarkAblationProbation(b *testing.B) {
	benchSetup(b)
	samples := analysis.NewPass(benchIn).AutoFixSeconds()
	model, err := timp.New(samples, timp.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var def, paper, zero float64
	for i := 0; i < b.N; i++ {
		def = model.ExpectedCost(timp.Probations{60, 60, 60})
		paper = model.ExpectedCost(timp.Probations{21, 6, 16})
		zero = model.ExpectedCost(timp.Probations{0, 0, 0})
	}
	b.ReportMetric(def, "cost_60s_s")
	b.ReportMetric(paper, "cost_paper_s")
	b.ReportMetric(zero, "cost_zero_s")
}

// ablationFleet runs a small fleet variant and returns 5G failures per
// 5G device.
func ablationFleet(b *testing.B, mutate func(*fleet.Scenario)) float64 {
	b.Helper()
	s := fleet.Scenario{Seed: 77, NumDevices: 1200, Workers: 8}
	mutate(&s)
	res, err := fleet.Run(s)
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	res.Dataset.Each(func(e *failure.Event) {
		if e.FiveGCapable {
			events++
		}
	})
	return float64(events) / float64(res.Population.FiveG)
}

// BenchmarkAblationRATPolicy compares vanilla, stability-compatible, and
// never-5G policies on 5G-device failure frequency.
func BenchmarkAblationRATPolicy(b *testing.B) {
	var vanilla, stability, never float64
	for i := 0; i < b.N; i++ {
		vanilla = ablationFleet(b, func(s *fleet.Scenario) {})
		stability = ablationFleet(b, func(s *fleet.Scenario) {
			s.Policy = fleet.PolicyStability
			s.DualConnectivity = true
		})
		never = ablationFleet(b, func(s *fleet.Scenario) { s.Policy = fleet.PolicyNever5G })
	}
	b.ReportMetric(vanilla, "vanilla_5g_freq")
	b.ReportMetric(stability, "stability_5g_freq")
	b.ReportMetric(never, "never5g_5g_freq")
}

// BenchmarkAblationDualConnectivity isolates the 4G/5G dual-connectivity
// contribution within the stability policy.
func BenchmarkAblationDualConnectivity(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		without = ablationFleet(b, func(s *fleet.Scenario) { s.Policy = fleet.PolicyStability })
		with = ablationFleet(b, func(s *fleet.Scenario) {
			s.Policy = fleet.PolicyStability
			s.DualConnectivity = true
		})
	}
	b.ReportMetric(without, "no_dual_5g_freq")
	b.ReportMetric(with, "dual_5g_freq")
}

// BenchmarkAblationFalsePositiveFilter quantifies dataset pollution when
// the §2.2 filters are disabled.
func BenchmarkAblationFalsePositiveFilter(b *testing.B) {
	run := func(disable bool) int {
		s := fleet.Scenario{Seed: 99, NumDevices: 800, Workers: 8, DisableFPFilter: disable}
		res, err := fleet.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		return res.Dataset.Len()
	}
	var filtered, unfiltered int
	for i := 0; i < b.N; i++ {
		filtered = run(false)
		unfiltered = run(true)
	}
	b.ReportMetric(float64(filtered), "events_filtered")
	b.ReportMetric(float64(unfiltered), "events_unfiltered")
	b.ReportMetric(float64(unfiltered-filtered)/float64(unfiltered)*100, "pollution_%")
}

// BenchmarkAblationProbeBackoff compares probing with and without the
// multiplicative timeout backoff on a long stall (rounds issued).
func BenchmarkAblationProbeBackoff(b *testing.B) {
	benchSetup(b)
	legacy := 0
	benchIn.Dataset.Each(func(e *failure.Event) {
		if e.Kind == failure.DataStall && e.Duration > 1200*time.Second {
			legacy++
		}
	})
	b.ReportMetric(float64(benchVanilla.Monitor.ProbeRounds), "probe_rounds")
	b.ReportMetric(float64(benchVanilla.Monitor.LegacyFallbacks), "legacy_fallbacks")
	for i := 0; i < b.N; i++ {
		_ = analysis.NewPass(benchIn).Figure10()
	}
}

// --- Live window and scorecard -----------------------------------------------

// BenchmarkDurationHist feeds the measured duration stream through the
// live window's duration histogram and compares its median against the
// exact ECDF median.
func BenchmarkDurationHist(b *testing.B) {
	benchSetup(b)
	var ds []time.Duration
	var xs []float64
	benchIn.Dataset.Each(func(e *failure.Event) {
		ds = append(ds, e.Duration)
		xs = append(xs, e.Duration.Seconds())
	})
	b.ResetTimer()
	var est time.Duration
	for i := 0; i < b.N; i++ {
		var h stats.DurationHist
		for _, d := range ds {
			h.Add(d)
		}
		est = h.Quantile(0.5)
	}
	b.StopTimer()
	exact := stats.NewECDF(xs).Quantile(0.5)
	b.ReportMetric(est.Seconds(), "p50_est_s")
	b.ReportMetric(exact, "p50_exact_s")
}

// BenchmarkClaimsScorecard regenerates the full claim scorecard.
func BenchmarkClaimsScorecard(b *testing.B) {
	benchSetup(b)
	passed := 0
	for i := 0; i < b.N; i++ {
		passed = 0
		for _, r := range analysis.NewPass(benchIn).Claims() {
			if r.Pass {
				passed++
			}
		}
	}
	b.ReportMetric(float64(passed), "claims_pass")
}
