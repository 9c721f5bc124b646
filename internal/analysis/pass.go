package analysis

import (
	"sync"

	"repro/internal/failure"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// source is the figure-extraction surface the report, claims, guidelines
// and enhancement layers are written against. Pass implements it from one
// sweep; the multi-pass oracle in the tests implements it with one
// sequential scan per figure. The unexported methods keep implementations
// inside this package.
type source interface {
	input() Input
	Table1(catalogue []ModelCatalogueEntry) []ModelRow
	Table2(topN int) []CauseRow
	Figure3() FailuresPerPhone
	Figure4() DurationStats
	By5G() (fiveG, non5G GroupStats)
	ByAndroidVersion() (android9, android10 GroupStats)
	ByISP() [simnet.NumISPs]GroupStats
	Figure10() StallAutoFix
	Figure11(topN int) BSRanking
	Figure14() []RATPrevalence
	Figure15() [telephony.NumSignalLevels]LevelPrevalence
	Figure16(rat telephony.RAT) [telephony.NumSignalLevels]LevelPrevalence
	kindDurations(kind failure.Kind) []float64
	fiveGKindStats() map[failure.Kind]kindAgg
}

// passVisitor is every figure's accumulator behind one concrete Visit, so
// the engine's hot loop pays one dynamic dispatch per event, not one per
// figure: the sub-visitor calls are static and the small ones inline.
type passVisitor struct {
	dev     *deviceVisitor
	cause   *causeVisitor
	dur     *durationVisitor
	kindDur *kindDurationVisitor
	stall   *stallVisitor
	bs      *bsVisitor
	rat     *ratVisitor
	region  *regionVisitor
}

func newPassVisitor(hint int) *passVisitor {
	return &passVisitor{
		dev:     newDeviceVisitor(hint),
		cause:   newCauseVisitor(),
		dur:     newDurationVisitor(),
		kindDur: newKindDurationVisitor(hint),
		stall:   newStallVisitor(),
		bs:      newBSVisitor(hint),
		rat:     newRATVisitor(),
		region:  newRegionVisitor(),
	}
}

func (v *passVisitor) Visit(e *failure.Event) {
	v.dev.Visit(e)
	v.cause.Visit(e)
	v.dur.Visit(e)
	v.kindDur.Visit(e)
	v.stall.Visit(e)
	v.bs.Visit(e)
	v.rat.Visit(e)
	v.region.Visit(e)
}

// Merge folds the counters in pairwise, in run order; the samples merge
// all runs at once, so each becomes one exact-size slice.
func (v *passVisitor) Merge(parts []*passVisitor) {
	kindDur := make([]*kindDurationVisitor, len(parts))
	stall := make([]*stallVisitor, len(parts))
	for i, o := range parts {
		v.dev.Merge(o.dev)
		v.cause.Merge(o.cause)
		v.dur.Merge(o.dur)
		v.bs.Merge(o.bs)
		v.rat.Merge(o.rat)
		v.region.Merge(o.region)
		kindDur[i], stall[i] = o.kindDur, o.stall
	}
	v.kindDur.Merge(kindDur)
	v.stall.Merge(stall)
}

func (v *passVisitor) settle() {
	v.kindDur.settle()
	v.stall.settle()
}

// Pass holds the accumulated state of one engine pass over a dataset:
// every figure's accumulator, filled by a single parallel sweep and
// settled. Build one with NewPass per dataset and extract as many figures
// as needed; nothing rescans or re-sorts, and extraction only reads, so a
// Pass is safe for concurrent readers.
type Pass struct {
	in Input
	*passVisitor

	// fig4 is Figure 4, finished on first use: the claims ask for it twice.
	// It reads the per-kind duration samples in place and belongs to the
	// Pass, not to the visitors, so a live engine (which makes a Pass per
	// render) retains nothing for it.
	fig4Once sync.Once
	fig4     DurationStats
}

// NewPass sweeps the input's dataset once.
func NewPass(in Input) *Pass { return newPass(in, passWorkers()) }

// newPass is NewPass on up to workers workers; the figures do not depend
// on the count.
func newPass(in Input, workers int) *Pass {
	hint := passHint(in.Dataset, workers)
	pv := runPass(in.Dataset, workers, func() *passVisitor { return newPassVisitor(hint) })
	return &Pass{in: in, passVisitor: pv}
}

func (p *Pass) input() Input { return p.in }

// Table1 extracts per-model prevalence and frequency, paired with the
// paper's Table 1 values.
func (p *Pass) Table1(catalogue []ModelCatalogueEntry) []ModelRow {
	return p.dev.table1(p.in.Population, catalogue)
}

// Table2 decomposes Data_Setup_Error events by protocol error code and
// returns the topN rows by share.
func (p *Pass) Table2(topN int) []CauseRow { return p.cause.table2(topN) }

// Figure3 extracts the failures-per-phone distribution.
func (p *Pass) Figure3() FailuresPerPhone { return p.dev.figure3(p.in.Population) }

// Figure4 extracts the failure-duration distribution.
func (p *Pass) Figure4() DurationStats {
	p.fig4Once.Do(func() { p.fig4 = p.dur.figure4(p.kindDur.runs()) })
	return p.fig4
}

// By5G extracts Figures 6 and 7: 5G models versus non-5G Android 10 models
// (the paper's footnote-4 fair comparison group).
func (p *Pass) By5G() (fiveG, non5G GroupStats) { return p.dev.by5G(p.in.Population) }

// ByAndroidVersion extracts Figures 8 and 9: Android 9 versus non-5G
// Android 10.
func (p *Pass) ByAndroidVersion() (android9, android10 GroupStats) {
	return p.dev.byAndroidVersion(p.in.Population)
}

// ByISP extracts Figures 12 and 13, the per-ISP comparison.
func (p *Pass) ByISP() [simnet.NumISPs]GroupStats { return p.dev.byISP(p.in.Population) }

// Figure10 extracts the Data_Stall self-recovery distribution, from the
// probing component's AutoFixTime measurements.
func (p *Pass) Figure10() StallAutoFix { return p.stall.figure10() }

// AutoFixSeconds is Figure 10's sample itself — every measured Data_Stall
// self-recovery time, in seconds, ascending — which the TIMP fit (§4.2) is
// made from. Shared with the pass: for reading only.
func (p *Pass) AutoFixSeconds() []float64 { return p.stall.autoFix.ascending() }

// Figure11 extracts the BS failure ranking.
func (p *Pass) Figure11(topN int) BSRanking { return p.bs.figure11(topN) }

// Figure14 extracts per-RAT normalized failure prevalence.
func (p *Pass) Figure14() []RATPrevalence { return p.rat.figure14(p.in.Dwell, p.in.Network) }

// Figure15 extracts normalized prevalence per signal level across RATs.
func (p *Pass) Figure15() [telephony.NumSignalLevels]LevelPrevalence {
	return p.dev.figure15(p.in.Dwell)
}

// Figure16 extracts normalized prevalence per signal level for one RAT
// (the paper contrasts 4G and 5G).
func (p *Pass) Figure16(rat telephony.RAT) [telephony.NumSignalLevels]LevelPrevalence {
	return p.dev.figure16(p.in.Dwell, rat)
}

// Figure17 extracts the transition-failure increase panel for a RAT pair
// (pure: derived from the transition matrix, not the event stream).
func (p *Pass) Figure17(fromRAT, toRAT telephony.RAT) TransitionIncrease {
	return figure17(p.in, fromRAT, toRAT)
}

// DurationByKind extracts per-kind duration statistics; a kind with no
// events has no entry.
func (p *Pass) DurationByKind() map[failure.Kind]DurationStats {
	return p.kindDur.durationByKind()
}

// ByRegion extracts per-region failure statistics.
func (p *Pass) ByRegion() []RegionStats { return p.region.byRegion() }

// EstimateOpSuccess extracts the per-stage recovery-operation fix rates.
func (p *Pass) EstimateOpSuccess() OpSuccessEstimate { return p.stall.opSuccess() }

// HardwareCorrelation extracts the §3.2 feature-correlation table from
// Table 1.
func (p *Pass) HardwareCorrelation(catalogue []ModelCatalogueEntry) []FeatureCorrelation {
	return hardwareCorrelationFromRows(p.Table1(catalogue), catalogue)
}

// Claims evaluates every paper claim against this pass.
func (p *Pass) Claims() []ClaimResult { return checkClaimsFrom(p) }

// Guidelines derives the paper's §4.1 per-stakeholder guidance from this
// pass, each recommendation backed by the dataset's own evidence.
func (p *Pass) Guidelines() []Guideline { return guidelinesFrom(p) }

func (p *Pass) kindDurations(kind failure.Kind) []float64 { return p.kindDur.kindDurations(kind) }

func (p *Pass) fiveGKindStats() map[failure.Kind]kindAgg { return p.dev.fiveGKindStats() }
