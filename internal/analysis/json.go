package analysis

import (
	"encoding/json"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// This file defines the canonical machine-readable rendering of a pass:
// every figure the fused engine extracts, marshaled with a fixed field
// order and fixed topN/point counts. The byte layout is the streaming=batch
// contract (invariant I5): `cellanalyze -figures-json` over a final
// snapshot and `/api/live/figures` after the collector drains must produce
// *identical bytes*, because both call FiguresJSON over equal accumulator
// state. Anything order-sensitive (map iteration, topN ties) is resolved
// deterministically before marshaling: maps become kind-ordered slices,
// and every ranking the engine emits already breaks ties on stable keys.

// jsonTopCounts caps Figure 11's per-BS count dump in the JSON document;
// the full ranking is summarized by the fit and the moments.
const jsonTopCounts = 100

// jsonCDFPoints is the fixed number of CDF sample points per figure.
const jsonCDFPoints = 64

// KindMeanDoc is one per-kind mean in Figure 3's JSON rendering.
type KindMeanDoc struct {
	Kind string  `json:"kind"`
	Mean float64 `json:"mean"`
}

// Figure3Doc is Figure 3 in JSON form.
type Figure3Doc struct {
	Mean         float64       `json:"mean"`
	Max          float64       `json:"max"`
	ZeroShare    float64       `json:"zero_share"`
	OOSFreeShare float64       `json:"oos_free_share"`
	MeanPerKind  []KindMeanDoc `json:"mean_per_kind"`
	CDF          [][2]float64  `json:"cdf"`
}

// DurationDoc is a duration distribution in JSON form (durations in
// nanoseconds, CDF over seconds).
type DurationDoc struct {
	Mean       time.Duration `json:"mean_ns"`
	Median     time.Duration `json:"median_ns"`
	Max        time.Duration `json:"max_ns"`
	Under30    float64       `json:"under_30s"`
	StallShare float64       `json:"stall_share_of_duration"`
	CDF        [][2]float64  `json:"cdf_s"`
}

func durationDoc(d DurationStats) DurationDoc {
	return DurationDoc{
		Mean: d.Mean, Median: d.Median, Max: d.Max,
		Under30: d.Under30, StallShare: d.StallShareOfDuration,
		CDF: d.CDF.Points(jsonCDFPoints),
	}
}

// KindDurationDoc is one failure kind's duration distribution.
type KindDurationDoc struct {
	Kind string      `json:"kind"`
	Dist DurationDoc `json:"dist"`
}

// Figure10Doc is the Data_Stall self-recovery distribution.
type Figure10Doc struct {
	Under10        float64      `json:"under_10s"`
	Under300       float64      `json:"under_300s"`
	FirstOpFixRate float64      `json:"first_op_fix_rate"`
	CDF            [][2]float64 `json:"cdf_s"`
}

// Figure11Doc is the BS failure ranking summary.
type Figure11Doc struct {
	Stations      int      `json:"stations"`
	FitA          float64  `json:"zipf_a"`
	FitB          float64  `json:"zipf_b"`
	FitR2         float64  `json:"zipf_r2"`
	Median        float64  `json:"median"`
	Mean          float64  `json:"mean"`
	Max           uint64   `json:"max"`
	TopUrbanShare float64  `json:"top_urban_share"`
	TopCounts     []uint64 `json:"top_counts"`
}

// RATDoc is one RAT's normalized failure prevalence (Figure 14).
type RATDoc struct {
	RAT        string  `json:"rat"`
	Events     int64   `json:"events"`
	DwellHours float64 `json:"dwell_hours"`
	Prevalence float64 `json:"prevalence_per_1000h"`
	BSes       int64   `json:"bses"`
}

// TransitionDoc is one Figure 17 panel.
type TransitionDoc struct {
	FromRAT  string                                                        `json:"from_rat"`
	ToRAT    string                                                        `json:"to_rat"`
	MeanRate float64                                                       `json:"mean_rate"`
	Increase [telephony.NumSignalLevels][telephony.NumSignalLevels]float64 `json:"increase"`
	Observed [telephony.NumSignalLevels][telephony.NumSignalLevels]bool    `json:"observed"`
}

// RegionDoc is one region's failure statistics.
type RegionDoc struct {
	Region       string        `json:"region"`
	Events       int           `json:"events"`
	MeanDuration time.Duration `json:"mean_duration_ns"`
	MaxDuration  time.Duration `json:"max_duration_ns"`
}

// FiguresDoc bundles every figure of one pass for JSON rendering. A figure
// type whose fields are plain values is its own schema: its JSON tags live
// on the type the Pass returns, and it is held here as is (fixed arrays
// marshal as JSON arrays, a list with no rows as null). Only a figure that
// holds an enum, an ECDF or the whole BS ranking has a *Doc above, which
// turns it into strings, points or a capped list.
type FiguresDoc struct {
	Events      int                                        `json:"events"`
	Table1      []ModelRow                                 `json:"table1"`
	Table2      []CauseRow                                 `json:"table2"`
	Correlation []FeatureCorrelation                       `json:"correlation"`
	Figure3     Figure3Doc                                 `json:"figure3"`
	Figure4     DurationDoc                                `json:"figure4"`
	ByKind      []KindDurationDoc                          `json:"duration_by_kind"`
	FiveG       GroupStats                                 `json:"by_5g"`
	Non5G       GroupStats                                 `json:"by_5g_control"`
	Android9    GroupStats                                 `json:"by_android9"`
	Android10   GroupStats                                 `json:"by_android10"`
	ByISP       [simnet.NumISPs]GroupStats                 `json:"by_isp"`
	Figure10    Figure10Doc                                `json:"figure10"`
	Figure11    Figure11Doc                                `json:"figure11"`
	Figure14    []RATDoc                                   `json:"figure14"`
	Figure15    [telephony.NumSignalLevels]LevelPrevalence `json:"figure15"`
	Figure16A   [telephony.NumSignalLevels]LevelPrevalence `json:"figure16_4g"`
	Figure16B   [telephony.NumSignalLevels]LevelPrevalence `json:"figure16_5g"`
	Figure17    []TransitionDoc                            `json:"figure17"`
	Regions     []RegionDoc                                `json:"regions"`
	OpSuccess   OpSuccessEstimate                          `json:"op_success"`
}

// FiguresDocOf extracts every figure from a pass into the canonical
// document. It works identically whether the pass came from a batch sweep
// or from the streaming engine's accumulators. Each part below fills its
// own fields of the document, on either of two cores (onTwoCores): the
// second starts at the front with Figure 4, the longest part, and this one
// at the back with Figure 11's ranking and the per-kind durations, the
// next longest; the two meet among the light parts in between. The field
// order of FiguresDoc, not the order of extraction, fixes the bytes.
func FiguresDocOf(p *Pass, catalogue []ModelCatalogueEntry) FiguresDoc {
	doc := FiguresDoc{Events: p.dur.count}
	onTwoCores(
		func() { doc.Figure4 = durationDoc(p.Figure4()) },
		func() { doc.Table1 = p.Table1(catalogue) },
		func() { doc.Table2 = p.Table2(10) },
		func() { doc.Correlation = p.HardwareCorrelation(catalogue) },
		func() {
			f3 := p.Figure3()
			doc.Figure3 = Figure3Doc{
				Mean: f3.Mean, Max: f3.Max, ZeroShare: f3.ZeroShare, OOSFreeShare: f3.OOSFreeShare,
				CDF: f3.CDF.Points(jsonCDFPoints),
			}
			for k := failure.Kind(0); k < failure.NumKinds; k++ {
				doc.Figure3.MeanPerKind = append(doc.Figure3.MeanPerKind,
					KindMeanDoc{Kind: k.String(), Mean: f3.MeanPerKind[k]})
			}
		},
		func() {
			doc.FiveG, doc.Non5G = p.By5G()
			doc.Android9, doc.Android10 = p.ByAndroidVersion()
		},
		func() { doc.ByISP = p.ByISP() },
		func() {
			f10 := p.Figure10()
			doc.Figure10 = Figure10Doc{
				Under10: f10.Under10, Under300: f10.Under300, FirstOpFixRate: f10.FirstOpFixRate,
				CDF: f10.CDF.Points(jsonCDFPoints),
			}
		},
		func() {
			for _, r := range p.Figure14() {
				doc.Figure14 = append(doc.Figure14, RATDoc{
					RAT: r.RAT.String(), Events: r.Events, DwellHours: r.DwellHours,
					Prevalence: r.Prevalence, BSes: r.BSes,
				})
			}
		},
		func() { doc.Figure15 = p.Figure15() },
		func() { doc.Figure16A = p.Figure16(telephony.RAT4G) },
		func() { doc.Figure16B = p.Figure16(telephony.RAT5G) },
		func() {
			for _, pair := range Figure17Pairs() {
				panel := p.Figure17(pair[0], pair[1])
				doc.Figure17 = append(doc.Figure17, TransitionDoc{
					FromRAT: panel.FromRAT.String(), ToRAT: panel.ToRAT.String(),
					MeanRate: panel.MeanRate, Increase: panel.Increase, Observed: panel.Observed,
				})
			}
		},
		func() {
			for _, r := range p.ByRegion() {
				doc.Regions = append(doc.Regions, RegionDoc{
					Region: r.Region.String(), Events: r.Events,
					MeanDuration: r.MeanDuration, MaxDuration: r.MaxDuration,
				})
			}
		},
		func() { doc.OpSuccess = p.EstimateOpSuccess() },
		func() { doc.ByKind = byKindDocs(p.DurationByKind()) },
		func() { doc.Figure11 = figure11Doc(p.Figure11(jsonTopCounts)) },
	)
	return doc
}

func figure11Doc(f11 BSRanking) Figure11Doc {
	top := f11.Counts
	if len(top) > jsonTopCounts {
		top = top[:jsonTopCounts]
	}
	return Figure11Doc{
		Stations: len(f11.Counts),
		FitA:     f11.Fit.A, FitB: f11.Fit.B, FitR2: f11.Fit.R2,
		Median: f11.Median, Mean: f11.Mean, Max: f11.Max,
		TopUrbanShare: f11.TopUrbanShare,
		TopCounts:     append([]uint64(nil), top...),
	}
}

// byKindDocs lists the per-kind distributions in kind order.
func byKindDocs(byKind map[failure.Kind]DurationStats) []KindDurationDoc {
	var out []KindDurationDoc
	for k := failure.Kind(0); k < failure.NumKinds; k++ {
		if d, ok := byKind[k]; ok {
			out = append(out, KindDurationDoc{Kind: k.String(), Dist: durationDoc(d)})
		}
	}
	return out
}

// onTwoCores runs every part exactly once and returns when all are done.
// When a pass may use two workers, a second goroutine takes the parts from
// the front while the caller takes them from the back, so the two meet in
// the middle: a part the other has finished is skipped, one it is running
// is waited for. Once both are done, a panic of the second goroutine is
// re-raised in the caller. On one worker the caller runs every part.
func onTwoCores(parts ...func()) {
	once := make([]sync.Once, len(parts))
	if passWorkers() > 1 {
		done := make(chan struct{})
		var panicked any
		go func() {
			defer func() {
				panicked = recover()
				close(done)
			}()
			for i := range parts {
				once[i].Do(parts[i])
			}
		}()
		defer func() {
			<-done
			if panicked != nil {
				panic(panicked)
			}
		}()
	}
	for i := len(parts) - 1; i >= 0; i-- {
		once[i].Do(parts[i])
	}
}

// marshalDoc is the single marshal call both the batch CLI and the live
// endpoints use — indentation and the trailing newline are part of the
// pinned byte layout.
func marshalDoc(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FiguresJSON renders the canonical figures document for a pass.
func (p *Pass) FiguresJSON(catalogue []ModelCatalogueEntry) ([]byte, error) {
	return marshalDoc(FiguresDocOf(p, catalogue))
}

// ClaimsDoc is the claims scorecard in JSON form.
type ClaimsDoc struct {
	Passed int           `json:"passed"`
	Total  int           `json:"total"`
	Claims []ClaimResult `json:"claims"`
}

// ClaimsDocOf evaluates every claim against a pass, after finishing the
// two heavy finishers the claims read (Figures 4 and 11) on two cores.
func ClaimsDocOf(p *Pass) ClaimsDoc {
	onTwoCores(
		func() { p.Figure4() },
		func() { p.ranked.get(p.bs.rank) },
	)
	rs := p.Claims()
	doc := ClaimsDoc{Total: len(rs), Claims: rs}
	for _, r := range rs {
		if r.Pass {
			doc.Passed++
		}
	}
	return doc
}

// ClaimsJSON renders the claims scorecard for a pass.
func (p *Pass) ClaimsJSON() ([]byte, error) {
	return marshalDoc(ClaimsDocOf(p))
}
