package analysis

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telephony"
	"repro/internal/trace"
)

// source is the figure-extraction surface the report, claims, guidelines
// and enhancement layers are written against. Pass implements it from one
// sweep; the multi-pass oracle in the tests implements it with one
// sequential scan per figure. The unexported methods keep implementations
// inside this package.
type source interface {
	input() *Input
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
// a fold's loop makes one direct call per event, not one per figure: the
// sub-visitor calls are static and the small ones inline.
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
		kindDur: newKindDurationVisitor(),
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

// Merge folds the counters in pairwise, in run order; each sample takes
// every run's part at once and sorts their union into one exact-size
// slice.
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

// settle sorts what the samples gathered since the last settle into them:
// the live engine's way to ready its one cumulative visitor for a render.
func (v *passVisitor) settle() {
	v.kindDur.settle()
	v.stall.settle()
}

// Pass holds the accumulated state of one pass over a dataset: every
// figure's accumulator, merged from its folds and settled. Build one with
// NewPass, Simulate or a Fold and extract as many figures as needed;
// nothing rescans or re-sorts, and extraction only reads the accumulators
// (the memos below are filled under sync.Once), so a Pass is safe for
// concurrent readers.
type Pass struct {
	in *Input
	*passVisitor

	// The heavy finishers, each finished on first use and then shared:
	// the figures document and the claims ask for them more than once. They
	// read the settled samples in place and belong to the Pass, not to the
	// visitors, so a live engine (which makes a Pass per render) retains
	// nothing for them. What they return is for reading only.
	fig3   memo[FailuresPerPhone]
	fig4   memo[DurationStats]
	byKind memo[map[failure.Kind]DurationStats]
	models memo[modelCounts]
	ranked memo[bsRanked]
}

// memo is one finisher's result, computed by the first get and shared by
// every later one, concurrent callers included.
type memo[T any] struct {
	once sync.Once
	v    T
}

func (m *memo[T]) get(finish func() T) T {
	m.once.Do(func() { m.v = finish() })
	return m.v
}

// passWorkers picks NewPass's fold count: capped by GOMAXPROCS and by the
// number of physical CPUs (an oversubscribed GOMAXPROCS only adds
// preemption churn and duplicate visitor state to a CPU-bound scan).
func passWorkers() int {
	return max(1, min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
}

// NewPass sweeps the input's dataset once: one fold per Dataset.Split run,
// each on its own core, then merge.
func NewPass(in Input) *Pass { return newPass(in, passWorkers()) }

// newPass is NewPass on up to workers cores; the figures do not depend on
// the count.
func newPass(in Input, workers int) *Pass { return merge(&in, foldRuns(in.Dataset, workers)) }

// foldRuns cuts the dataset, in Each order, into at most workers runs of
// near-equal length (see Dataset.Split) — however large the published
// segments — and folds each run on its own core, the first on the calling
// goroutine. A fold's device and station tables are pre-sized for one
// run's share of the events (a sample needs no hint: it grows a chunk at a
// time). A nil or empty dataset is one empty fold.
func foldRuns(ds *trace.Dataset, workers int) []*Fold {
	var runs [][][]failure.Event
	hint := 0
	if ds != nil {
		runs, hint = ds.Split(workers), ds.Len()/workers+1
	}
	if len(runs) == 0 {
		runs = [][][]failure.Event{nil}
	}
	folds := make([]*Fold, len(runs))
	stats.OnWorkers(len(runs), func(w int) {
		f := newFold(hint)
		for _, seg := range runs[w] {
			f.Add(seg)
		}
		folds[w] = f
	})
	return folds
}

// Fold is the pass's accumulator unit: one visitor set over one contiguous
// run of events, visited as they come and kept by none. A batch Pass is a
// merge of folds: NewPass folds each run of a dataset on its own core,
// Simulate each fleet worker's events, and Fold.Pass merges just the one.
type Fold struct {
	v       *passVisitor
	start   time.Time
	visited int64
}

// NewFold starts an empty fold, its pass timed from here.
func NewFold() *Fold { return newFold(0) }

// newFold is NewFold with the device and station tables pre-sized for
// about hint events.
func newFold(hint int) *Fold { return &Fold{v: newPassVisitor(hint), start: time.Now()} }

// Add visits the next run of the stream.
func (f *Fold) Add(events []failure.Event) {
	v := f.v
	for i := range events {
		v.Visit(&events[i])
	}
	f.visited += int64(len(events))
}

// Pass settles the fold, dividing its figures by ctx; add nothing after.
func (f *Fold) Pass(ctx fleet.Context) *Pass { return merge(&Input{Context: ctx}, []*Fold{f}) }

// merge is the only road from folds to a Pass. It merges the later folds
// into the first, in run order, so the pass is bit-identical to one fold
// over the runs concatenated, for any cut: a device's first event in run
// order supplies its metadata, as a sequential scan would, and a sample is
// a multiset, gathered unsorted and sorted once as the union across the
// folds, on one core per fold. The merge is the last step that writes: a
// Pass is read-only from then on. The pass is timed from its earliest
// fold's start to the end of the merge — every visit, the merge and the
// sort — and counted on the analysis_pass*/analysis_events* series.
func merge(in *Input, folds []*Fold) *Pass {
	base := folds[0]
	start, visited := base.start, base.visited
	parts := make([]*passVisitor, len(folds)-1)
	for i, f := range folds[1:] {
		parts[i] = f.v
		visited += f.visited
		if f.start.Before(start) {
			start = f.start
		}
	}
	base.v.Merge(parts)

	elapsed := time.Since(start)
	mPasses.Inc()
	mPassSeconds.Observe(elapsed.Seconds())
	mEventsVisited.Add(visited)
	mPassWorkers.Set(float64(len(folds)))
	if s := elapsed.Seconds(); s > 0 {
		mEventsPerSec.Set(float64(visited) / s)
	}
	return &Pass{in: in, passVisitor: base.v}
}

func (p *Pass) input() *Input { return p.in }

// Table1 extracts per-model prevalence and frequency, paired with the
// paper's Table 1 values.
func (p *Pass) Table1(catalogue []ModelCatalogueEntry) []ModelRow {
	return p.models.get(p.dev.byModel).table1(p.in.Population, catalogue)
}

// Table2 decomposes Data_Setup_Error events by protocol error code and
// returns the topN rows by share.
func (p *Pass) Table2(topN int) []CauseRow { return p.cause.table2(topN) }

// Figure3 extracts the failures-per-phone distribution.
func (p *Pass) Figure3() FailuresPerPhone {
	return p.fig3.get(func() FailuresPerPhone { return p.dev.figure3(p.in.Population) })
}

// Figure4 extracts the failure-duration distribution.
func (p *Pass) Figure4() DurationStats {
	return p.fig4.get(func() DurationStats { return p.dur.figure4(p.kindDur.runs()) })
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

// Figure11 extracts the BS failure ranking; the top topN stations give
// its urban share.
func (p *Pass) Figure11(topN int) BSRanking { return p.ranked.get(p.bs.rank).figure11(topN) }

// Figure14 extracts per-RAT normalized failure prevalence.
func (p *Pass) Figure14() []RATPrevalence { return p.rat.figure14(&p.in.Dwell, &p.in.StationsPerRAT) }

// Figure15 extracts normalized prevalence per signal level across RATs.
func (p *Pass) Figure15() [telephony.NumSignalLevels]LevelPrevalence {
	return p.dev.figure15(&p.in.Dwell)
}

// Figure16 extracts normalized prevalence per signal level for one RAT
// (the paper contrasts 4G and 5G).
func (p *Pass) Figure16(rat telephony.RAT) [telephony.NumSignalLevels]LevelPrevalence {
	return p.dev.figure16(&p.in.Dwell, rat)
}

// Figure17 extracts the transition-failure increase panel for a RAT pair
// (pure: derived from the transition matrix, not the event stream).
func (p *Pass) Figure17(fromRAT, toRAT telephony.RAT) TransitionIncrease {
	return figure17(p.in, fromRAT, toRAT)
}

// DurationByKind extracts per-kind duration statistics; a kind with no
// events has no entry.
func (p *Pass) DurationByKind() map[failure.Kind]DurationStats {
	return p.byKind.get(p.kindDur.durationByKind)
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
