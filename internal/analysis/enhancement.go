package analysis

import (
	"time"

	"repro/internal/failure"
	"repro/internal/stats"
)

// KindDelta is the per-kind prevalence/frequency change of Figures 19/20.
type KindDelta struct {
	Kind failure.Kind
	// PrevalenceChange and FrequencyChange are relative (negative =
	// reduction), computed over 5G devices.
	PrevalenceChange float64
	FrequencyChange  float64
}

// EnhancementReport reproduces the §4.3 evaluation: the effect of the
// stability-compatible RAT transition and TIMP-based recovery on 5G-phone
// failures and on failure durations.
type EnhancementReport struct {
	// FiveGPrevalenceChange is the relative change in the share of 5G
	// phones with at least one failure (paper: −10%).
	FiveGPrevalenceChange float64
	// FiveGFrequencyChange is the relative change in failures per 5G
	// phone (paper: −40.3%).
	FiveGFrequencyChange float64
	// ByKind breaks the 5G-phone changes down per failure kind.
	ByKind []KindDelta
	// StallDurationChange is the relative change in mean Data_Stall
	// duration across all phones (paper: −38%).
	StallDurationChange float64
	// TotalDurationChange is the relative change in total failure
	// duration across all phones (paper: −36%).
	TotalDurationChange float64
	// MedianDurationBefore/After are the all-failure medians (paper:
	// 6 s → 2 s).
	MedianDurationBefore time.Duration
	MedianDurationAfter  time.Duration
	// StallKS is the Kolmogorov–Smirnov distance between the vanilla and
	// patched Data_Stall duration distributions — how much of the CDF
	// (Figure 21's x-axis) the trigger change actually moved.
	StallKS float64
}

// CompareEnhancement evaluates a patched run's pass against a vanilla
// run's. Both must come from fleets with the same scenario shape.
func CompareEnhancement(vanilla, patched *Pass) EnhancementReport {
	return compareEnhancementFrom(vanilla, patched)
}

func compareEnhancementFrom(vanilla, patched source) EnhancementReport {
	rep := EnhancementReport{}

	vg, _ := vanilla.By5G()
	pg, _ := patched.By5G()
	rep.FiveGPrevalenceChange = stats.RelativeChange(vg.Prevalence, pg.Prevalence)
	rep.FiveGFrequencyChange = stats.RelativeChange(vg.Frequency, pg.Frequency)

	rep.ByKind = kindDeltasFrom(vanilla, patched)

	vd, pd := vanilla.Figure4(), patched.Figure4()
	rep.MedianDurationBefore = vd.Median
	rep.MedianDurationAfter = pd.Median

	// Duration comparisons use winsorized means (99th percentile cap): a
	// simulation-scale fleet cannot average away the multi-hour remote
	// tail the way the paper's 2.3B events do, and a handful of 25-hour
	// outages landing in one arm would otherwise drown the recovery
	// trigger's effect.
	const winsorQ = 0.99
	rep.StallDurationChange = stats.RelativeChange(
		winsorizedMeanOf(vanilla.kindDurations(failure.DataStall), winsorQ),
		winsorizedMeanOf(patched.kindDurations(failure.DataStall), winsorQ))
	rep.TotalDurationChange = stats.RelativeChange(
		winsorizedTotalPerDevice(vanilla, winsorQ),
		winsorizedTotalPerDevice(patched, winsorQ))
	if ks, err := stats.KolmogorovSmirnov(
		vanilla.kindDurations(failure.DataStall),
		patched.kindDurations(failure.DataStall)); err == nil {
		rep.StallKS = ks
	}
	return rep
}

func winsorizedMeanOf(xs []float64, q float64) float64 {
	m, err := stats.WinsorizedMean(xs, q)
	if err != nil {
		return 0
	}
	return m
}

// winsorizedTotalPerDevice is total (winsorized) failure seconds per device,
// over Figure 4's sample of every failure's duration.
func winsorizedTotalPerDevice(src source, q float64) float64 {
	all := src.Figure4().CDF
	if all.N() == 0 || src.input().Population.Total == 0 {
		return 0
	}
	return all.WinsorizedMean(q) * float64(all.N()) / float64(src.input().Population.Total)
}

func kindDeltasFrom(vanilla, patched source) []KindDelta {
	vm, vPop := vanilla.fiveGKindStats(), vanilla.input().Population.FiveG
	pm, pPop := patched.fiveGKindStats(), patched.input().Population.FiveG
	kinds := []failure.Kind{failure.DataSetupError, failure.DataStall, failure.OutOfService}
	out := make([]KindDelta, 0, len(kinds))
	for _, k := range kinds {
		d := KindDelta{Kind: k}
		var vp, vf, pp, pf float64
		if a, ok := vm[k]; ok && vPop > 0 {
			vp = float64(a.devices) / float64(vPop)
			vf = float64(a.events) / float64(vPop)
		}
		if a, ok := pm[k]; ok && pPop > 0 {
			pp = float64(a.devices) / float64(pPop)
			pf = float64(a.events) / float64(pPop)
		}
		d.PrevalenceChange = stats.RelativeChange(vp, pp)
		d.FrequencyChange = stats.RelativeChange(vf, pf)
		out = append(out, d)
	}
	return out
}

// OverheadReport checks the monitoring overhead against the paper's §2.2
// and §4.3 budgets.
type OverheadReport struct {
	MeanCPUUtilization float64
	MaxCPUUtilization  float64
	MaxMemoryBytes     int64
	MaxStorageBytes    int64
	MaxNetworkBytes    int64
	// Budget verdicts.
	WithinTypicalBudget bool // <2% CPU, <40 KB mem, <100 KB storage
	WithinWorstBudget   bool // <8% CPU, <2 MB mem (patched: ~3 MB), <20 MB storage, ~20 MB net/month
}

// CheckOverhead evaluates an overhead summary against the paper's budgets
// over a window of the given number of months.
func CheckOverhead(mean, maxCPU float64, maxMem, maxStorage, maxNet int64, months float64) OverheadReport {
	if months <= 0 {
		months = 8
	}
	rep := OverheadReport{
		MeanCPUUtilization: mean,
		MaxCPUUtilization:  maxCPU,
		MaxMemoryBytes:     maxMem,
		MaxStorageBytes:    maxStorage,
		MaxNetworkBytes:    maxNet,
	}
	rep.WithinTypicalBudget = mean < 0.02
	netPerMonth := float64(maxNet) / months
	rep.WithinWorstBudget = maxCPU < 0.08 &&
		maxMem < 3<<20 &&
		maxStorage < 20<<20 &&
		netPerMonth < 22<<20
	return rep
}
