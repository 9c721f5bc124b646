package analysis

import (
	"encoding/json"
	"time"

	"repro/internal/failure"
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

// GroupDoc is a device-group prevalence/frequency pair.
type GroupDoc struct {
	Name       string  `json:"name"`
	Devices    int     `json:"devices"`
	Failing    int     `json:"failing"`
	Events     int     `json:"events"`
	Prevalence float64 `json:"prevalence"`
	Frequency  float64 `json:"frequency"`
}

func groupDoc(g GroupStats) GroupDoc {
	return GroupDoc{Name: g.Name, Devices: g.Devices, Failing: g.Failing,
		Events: g.Events, Prevalence: g.Prevalence, Frequency: g.Frequency}
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

// LevelDoc is one signal level's normalized prevalence (Figures 15/16).
type LevelDoc struct {
	Level      int     `json:"level"`
	Raw        float64 `json:"raw"`
	Normalized float64 `json:"normalized"`
	Exposed    int64   `json:"exposed"`
}

func levelDocs(levels [telephony.NumSignalLevels]LevelPrevalence) []LevelDoc {
	out := make([]LevelDoc, 0, len(levels))
	for _, l := range levels {
		out = append(out, LevelDoc{Level: int(l.Level), Raw: l.Raw, Normalized: l.Normalized, Exposed: l.Exposed})
	}
	return out
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

// Table1Doc is one Table 1 row.
type Table1Doc struct {
	ModelID         int     `json:"model_id"`
	FiveG           bool    `json:"five_g"`
	Android         int     `json:"android"`
	Devices         int     `json:"devices"`
	Prevalence      float64 `json:"prevalence"`
	Frequency       float64 `json:"frequency"`
	PaperPrevalence float64 `json:"paper_prevalence"`
	PaperFrequency  float64 `json:"paper_frequency"`
}

// Table2Doc is one Table 2 row.
type Table2Doc struct {
	Cause      int     `json:"cause"`
	Name       string  `json:"name"`
	Share      float64 `json:"share"`
	PaperShare float64 `json:"paper_share"`
}

// CorrelationDoc is one §3.2 feature-correlation row.
type CorrelationDoc struct {
	Feature        string  `json:"feature"`
	WithPrevalence float64 `json:"with_prevalence"`
	WithFrequency  float64 `json:"with_frequency"`
}

// OpSuccessDoc is the measured recovery-operation effectiveness.
type OpSuccessDoc struct {
	Rates      [3]float64 `json:"rates"`
	Executions [3]int     `json:"executions"`
}

// FiguresDoc bundles every figure of one pass for JSON rendering.
type FiguresDoc struct {
	Events      int               `json:"events"`
	Table1      []Table1Doc       `json:"table1"`
	Table2      []Table2Doc       `json:"table2"`
	Correlation []CorrelationDoc  `json:"correlation"`
	Figure3     Figure3Doc        `json:"figure3"`
	Figure4     DurationDoc       `json:"figure4"`
	ByKind      []KindDurationDoc `json:"duration_by_kind"`
	FiveG       GroupDoc          `json:"by_5g"`
	Non5G       GroupDoc          `json:"by_5g_control"`
	Android9    GroupDoc          `json:"by_android9"`
	Android10   GroupDoc          `json:"by_android10"`
	ByISP       []GroupDoc        `json:"by_isp"`
	Figure10    Figure10Doc       `json:"figure10"`
	Figure11    Figure11Doc       `json:"figure11"`
	Figure14    []RATDoc          `json:"figure14"`
	Figure15    []LevelDoc        `json:"figure15"`
	Figure16A   []LevelDoc        `json:"figure16_4g"`
	Figure16B   []LevelDoc        `json:"figure16_5g"`
	Figure17    []TransitionDoc   `json:"figure17"`
	Regions     []RegionDoc       `json:"regions"`
	OpSuccess   OpSuccessDoc      `json:"op_success"`
}

// FiguresDocOf extracts every figure from a pass into the canonical
// document. It works identically whether the pass came from a batch sweep
// or from the streaming engine's accumulators.
func FiguresDocOf(p *Pass, catalogue []ModelCatalogueEntry) FiguresDoc {
	doc := FiguresDoc{Events: p.dur.count}

	for _, r := range p.Table1(catalogue) {
		doc.Table1 = append(doc.Table1, Table1Doc{
			ModelID: r.ModelID, FiveG: r.FiveG, Android: r.Android, Devices: r.Devices,
			Prevalence: r.Prevalence, Frequency: r.Frequency,
			PaperPrevalence: r.PaperPrevalence, PaperFrequency: r.PaperFrequency,
		})
	}
	for _, r := range p.Table2(10) {
		doc.Table2 = append(doc.Table2, Table2Doc{
			Cause: int(r.Cause), Name: r.Name, Share: r.Share, PaperShare: r.PaperShare,
		})
	}
	for _, c := range p.HardwareCorrelation(catalogue) {
		doc.Correlation = append(doc.Correlation, CorrelationDoc{
			Feature: c.Feature, WithPrevalence: c.WithPrevalence, WithFrequency: c.WithFrequency,
		})
	}

	f3 := p.Figure3()
	doc.Figure3 = Figure3Doc{
		Mean: f3.Mean, Max: f3.Max, ZeroShare: f3.ZeroShare, OOSFreeShare: f3.OOSFreeShare,
		CDF: f3.CDF.Points(jsonCDFPoints),
	}
	for k := failure.Kind(0); k < failure.NumKinds; k++ {
		doc.Figure3.MeanPerKind = append(doc.Figure3.MeanPerKind,
			KindMeanDoc{Kind: k.String(), Mean: f3.MeanPerKind[k]})
	}

	doc.Figure4 = durationDoc(p.Figure4())

	byKind := p.DurationByKind()
	for k := failure.Kind(0); k < failure.NumKinds; k++ {
		d, ok := byKind[k]
		if !ok {
			continue
		}
		doc.ByKind = append(doc.ByKind, KindDurationDoc{Kind: k.String(), Dist: durationDoc(d)})
	}

	f5, n5 := p.By5G()
	doc.FiveG, doc.Non5G = groupDoc(f5), groupDoc(n5)
	a9, a10 := p.ByAndroidVersion()
	doc.Android9, doc.Android10 = groupDoc(a9), groupDoc(a10)
	for _, g := range p.ByISP() {
		doc.ByISP = append(doc.ByISP, groupDoc(g))
	}

	f10 := p.Figure10()
	doc.Figure10 = Figure10Doc{
		Under10: f10.Under10, Under300: f10.Under300, FirstOpFixRate: f10.FirstOpFixRate,
		CDF: f10.CDF.Points(jsonCDFPoints),
	}

	f11 := p.Figure11(jsonTopCounts)
	top := f11.Counts
	if len(top) > jsonTopCounts {
		top = top[:jsonTopCounts]
	}
	doc.Figure11 = Figure11Doc{
		Stations: len(f11.Counts),
		FitA:     f11.Fit.A, FitB: f11.Fit.B, FitR2: f11.Fit.R2,
		Median: f11.Median, Mean: f11.Mean, Max: f11.Max,
		TopUrbanShare: f11.TopUrbanShare,
		TopCounts:     append([]uint64(nil), top...),
	}

	for _, r := range p.Figure14() {
		doc.Figure14 = append(doc.Figure14, RATDoc{
			RAT: r.RAT.String(), Events: r.Events, DwellHours: r.DwellHours,
			Prevalence: r.Prevalence, BSes: r.BSes,
		})
	}
	doc.Figure15 = levelDocs(p.Figure15())
	doc.Figure16A = levelDocs(p.Figure16(telephony.RAT4G))
	doc.Figure16B = levelDocs(p.Figure16(telephony.RAT5G))

	for _, pair := range Figure17Pairs() {
		panel := p.Figure17(pair[0], pair[1])
		doc.Figure17 = append(doc.Figure17, TransitionDoc{
			FromRAT: panel.FromRAT.String(), ToRAT: panel.ToRAT.String(),
			MeanRate: panel.MeanRate, Increase: panel.Increase, Observed: panel.Observed,
		})
	}

	for _, r := range p.ByRegion() {
		doc.Regions = append(doc.Regions, RegionDoc{
			Region: r.Region.String(), Events: r.Events,
			MeanDuration: r.MeanDuration, MaxDuration: r.MaxDuration,
		})
	}

	op := p.EstimateOpSuccess()
	doc.OpSuccess = OpSuccessDoc{Rates: op.Rates, Executions: op.Executions}
	return doc
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

// ClaimsDocOf evaluates every claim against a pass.
func ClaimsDocOf(p *Pass) ClaimsDoc {
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
