package analysis

import (
	"time"

	"repro/internal/geo"
	"repro/internal/stats"
	"repro/internal/telephony"
)

// StallAutoFix reproduces Figure 10: how quickly Data_Stall failures fix
// themselves without intervention.
type StallAutoFix struct {
	CDF *stats.ECDF // seconds
	// Under10 is the fraction self-fixed within 10 s (paper: 60%).
	Under10 float64
	// Under300 is the fraction under 300 s (paper: >80%).
	Under300 float64
	// FirstOpFixRate is the share of executed first-stage cleanups that
	// fixed the stall (paper: 75%).
	FirstOpFixRate float64
}

// BSRanking reproduces Figure 11: base stations ranked by experienced
// failures, with the fitted Zipf parameters (paper: a = 0.82, b = 17.12;
// median 1, mean 444, max 8,941,860).
type BSRanking struct {
	Counts []uint64 // descending
	Fit    stats.ZipfFit
	Median float64
	Mean   float64
	Max    uint64
	// TopUrbanShare is the fraction of the top-ranked BSes located in
	// crowded urban areas or transport hubs (the paper's root cause).
	TopUrbanShare float64
}

// RATPrevalence reproduces Figure 14: the prevalence of cellular failures
// on BSes of each access technology, measured as failures per thousand
// connected hours on that RAT (a fleet of our size saturates the paper's
// raw per-BS fraction, so we report the dwell-normalized rate — the
// quantity the ordering claim is actually about: 3G networks face less
// resource contention and manifest fewer failures than 2G or 4G; 5G is
// worst).
type RATPrevalence struct {
	RAT        telephony.RAT
	Events     int64
	DwellHours float64
	// Prevalence is failures per 1000 connected hours.
	Prevalence float64
	// BSes is the census count of stations supporting the RAT.
	BSes int64
}

// LevelPrevalence reproduces Figures 15 and 16: normalized prevalence
// (prevalence divided by mean connected time, the paper's fairness
// correction for unequal dwell) per signal level.
type LevelPrevalence struct {
	Level telephony.SignalLevel
	// Raw is devices failing at this level / devices exposed to it.
	Raw float64
	// Normalized divides Raw by the mean dwell hours per exposed device.
	Normalized float64
	Exposed    int64
}

// TransitionIncrease reproduces one panel of Figure 17: the increase of
// failure likelihood for RAT transitions from fromRAT level-i to toRAT
// level-j, relative to the mean transition failure rate.
type TransitionIncrease struct {
	FromRAT, ToRAT telephony.RAT
	// Increase[i][j] is rate(i→j) − meanRate; NaN-free (unobserved cells
	// are zero with Observed[i][j] false).
	Increase [telephony.NumSignalLevels][telephony.NumSignalLevels]float64
	Observed [telephony.NumSignalLevels][telephony.NumSignalLevels]bool
	MeanRate float64
}

// figure17 computes the transition-failure increase panel for a RAT pair.
// It reads only the transition matrix, not the event stream.
func figure17(in Input, fromRAT, toRAT telephony.RAT) TransitionIncrease {
	out := TransitionIncrease{FromRAT: fromRAT, ToRAT: toRAT}
	var exp, fails int64
	for i := 0; i < telephony.NumSignalLevels; i++ {
		for j := 0; j < telephony.NumSignalLevels; j++ {
			exp += in.Transitions.Exposure[fromRAT][i][toRAT][j]
			fails += in.Transitions.Failures[fromRAT][i][toRAT][j]
		}
	}
	if exp > 0 {
		out.MeanRate = float64(fails) / float64(exp)
	}
	for i := 0; i < telephony.NumSignalLevels; i++ {
		for j := 0; j < telephony.NumSignalLevels; j++ {
			rate, ok := in.Transitions.FailureRate(fromRAT, telephony.SignalLevel(i), toRAT, telephony.SignalLevel(j))
			if !ok {
				continue
			}
			out.Observed[i][j] = true
			out.Increase[i][j] = rate - out.MeanRate
		}
	}
	return out
}

// Figure17Pairs returns the six RAT pairs of Figure 17a-f.
func Figure17Pairs() [6][2]telephony.RAT {
	return [6][2]telephony.RAT{
		{telephony.RAT2G, telephony.RAT3G},
		{telephony.RAT2G, telephony.RAT4G},
		{telephony.RAT2G, telephony.RAT5G},
		{telephony.RAT3G, telephony.RAT4G},
		{telephony.RAT3G, telephony.RAT5G},
		{telephony.RAT4G, telephony.RAT5G},
	}
}

// RegionStats summarizes failures per deployment region (§3.1/§3.3: top
// failing BSes sit in crowded urban areas; the longest outages come from
// long-neglected remote infrastructure).
type RegionStats struct {
	Region       geo.Region
	Events       int
	MeanDuration time.Duration
	MaxDuration  time.Duration
}

// OpSuccessEstimate is the measured per-stage recovery-operation fix rate:
// stage i executed whenever OpsExecuted > i, and fixed the stall when
// ResolvedBy records it. The paper measured 75% for the first-stage cleanup
// the same way; the TIMP fit uses these measured rates rather than
// assumptions.
type OpSuccessEstimate struct {
	// Rates[i] is the fraction of stage-i executions that fixed the stall.
	Rates [3]float64
	// Executions[i] counts stage-i executions observed.
	Executions [3]int
}
