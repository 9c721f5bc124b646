package analysis

import (
	"slices"
	"time"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telephony"
)

// numRATs mirrors the fleet aggregates' RAT axis (unknown + 2G..5G).
const numRATs = 5

// ---------------------------------------------------------------------------
// deviceVisitor: every per-device aggregate of the pass in ONE lookup per
// event. Table 1, Figure 3, the group comparisons (Figures 6-9, 12-13),
// the signal-level device sets (Figures 15/16) and the 5G per-kind
// enhancement numerators all key by DeviceID, so they share one state
// record.

// devState is one device's accumulated state. levelBits packs the Figure
// 15/16 "device failed at this level (per RAT / any RAT)" sets into a
// bitmask: bit rat*NumSignalLevels+level for rat < numRATs, bit 30+level
// for any-RAT (36 bits used).
type devState struct {
	seen        bool
	fiveG       bool
	android     int8
	modelID     int32
	isp         simnet.ISPID
	total       int32
	byKind      [failure.NumKinds]int32
	fiveGByKind [failure.NumKinds]int32
	levelBits   uint64
}

// denseDeviceLimit bounds the slice-backed fast path. Fleet device IDs are
// small sequential integers, so virtually all traffic takes the dense
// branch; arbitrary 64-bit IDs spill to the sparse map.
const denseDeviceLimit = 1 << 21

type deviceVisitor struct {
	dense  []devState
	sparse map[uint64]*devState
}

func newDeviceVisitor(hint int) *deviceVisitor {
	v := &deviceVisitor{sparse: map[uint64]*devState{}}
	// Pre-size the dense array for large passes: fleet device IDs are small
	// sequential integers, so a million-event pass would otherwise pay a
	// chain of grow-copies on its way up from the initial size.
	if n := hint / 32; n >= 1024 {
		if n > 1<<15 {
			n = 1 << 15
		}
		v.dense = make([]devState, n)
	}
	return v
}

func (v *deviceVisitor) state(id uint64) *devState {
	if id < denseDeviceLimit {
		if i := int(id); i < len(v.dense) {
			return &v.dense[i]
		}
		v.growDense(int(id) + 1)
		return &v.dense[id]
	}
	d := v.sparse[id]
	if d == nil {
		d = &devState{}
		v.sparse[id] = d
	}
	return d
}

func (v *deviceVisitor) growDense(n int) {
	if cap(v.dense) >= n {
		v.dense = v.dense[:n]
		return
	}
	c := 2 * cap(v.dense)
	if c < 1024 {
		c = 1024
	}
	if c < n {
		c = n
	}
	if c > denseDeviceLimit {
		c = denseDeviceLimit
	}
	grown := make([]devState, n, c)
	copy(grown, v.dense)
	v.dense = grown
}

func (v *deviceVisitor) Visit(e *failure.Event) {
	d := v.state(e.DeviceID)
	if !d.seen {
		d.seen = true
		d.modelID = int32(e.ModelID)
		d.android = int8(e.AndroidVersion)
		d.fiveG = e.FiveGCapable
		d.isp = e.ISP
	}
	d.total++
	if int(e.Kind) < failure.NumKinds {
		d.byKind[e.Kind]++
		if e.FiveGCapable {
			d.fiveGByKind[e.Kind]++
		}
	}
	if e.Level.Valid() {
		d.levelBits |= 1 << (30 + uint(e.Level))
		if int(e.RAT) < numRATs {
			d.levelBits |= 1 << (uint(e.RAT)*telephony.NumSignalLevels + uint(e.Level))
		}
	}
}

// each visits every device's state. Finishers only consume per-device
// aggregates whose combination is order-independent (integer sums, set
// sizes, ECDF inputs that are sorted on construction), so iteration order
// does not affect any figure.
func (v *deviceVisitor) each(fn func(id uint64, d *devState)) {
	for i := range v.dense {
		if v.dense[i].seen {
			fn(uint64(i), &v.dense[i])
		}
	}
	for id, d := range v.sparse {
		fn(id, d)
	}
}

// failing counts the devices with at least one event.
func (v *deviceVisitor) failing() (n int) {
	v.each(func(uint64, *devState) { n++ })
	return n
}

func (v *deviceVisitor) Merge(o *deviceVisitor) {
	// A device's first event in Each order supplies its metadata, exactly
	// as a sequential scan would; later runs only add counts and bits.
	o.each(func(id uint64, od *devState) {
		d := v.state(id)
		if !d.seen {
			*d = *od
			return
		}
		d.total += od.total
		for k := range d.byKind {
			d.byKind[k] += od.byKind[k]
			d.fiveGByKind[k] += od.fiveGByKind[k]
		}
		d.levelBits |= od.levelBits
	})
}

func (v *deviceVisitor) table1(pop fleet.Population, catalogue []ModelCatalogueEntry) []ModelRow {
	failing := make(map[int]int)
	events := make(map[int]int)
	v.each(func(_ uint64, d *devState) {
		failing[int(d.modelID)]++
		events[int(d.modelID)] += int(d.total)
	})
	rows := make([]ModelRow, 0, len(catalogue))
	for _, m := range catalogue {
		devices := pop.ByModel[m.ID]
		row := ModelRow{
			ModelID: m.ID, FiveG: m.FiveG, Android: m.Android,
			Devices:         devices,
			PaperPrevalence: m.Prevalence,
			PaperFrequency:  m.Frequency,
		}
		if devices > 0 {
			row.Prevalence = float64(failing[m.ID]) / float64(devices)
			row.Frequency = float64(events[m.ID]) / float64(devices)
		}
		rows = append(rows, row)
	}
	return rows
}

func (v *deviceVisitor) figure3(pop fleet.Population) FailuresPerPhone {
	total := pop.Total
	out := FailuresPerPhone{MeanPerKind: map[failure.Kind]float64{}}
	counts := make([]float64, 0, total)
	failingDevs := 0
	oosDevices := 0
	var sum float64
	kindSums := map[failure.Kind]float64{}
	v.each(func(_ uint64, d *devState) {
		failingDevs++
		c := float64(d.total)
		counts = append(counts, c)
		sum += c
		if c > out.Max {
			out.Max = c
		}
		for k, n := range d.byKind {
			kindSums[failure.Kind(k)] += float64(n)
		}
		if d.byKind[failure.OutOfService] > 0 {
			oosDevices++
		}
	})
	for i := failingDevs; i < total; i++ {
		counts = append(counts, 0)
	}
	out.CDF = stats.NewECDF(counts)
	if total > 0 {
		out.Mean = sum / float64(total)
		out.ZeroShare = float64(total-failingDevs) / float64(total)
		out.OOSFreeShare = float64(total-oosDevices) / float64(total)
		for k, s := range kindSums {
			out.MeanPerKind[k] = s / float64(total)
		}
	}
	return out
}

func (v *deviceVisitor) by5G(pop fleet.Population) (fiveG, non5G GroupStats) {
	var f5, e5, f10, e10 int
	v.each(func(_ uint64, d *devState) {
		switch {
		case d.fiveG:
			f5++
			e5 += int(d.total)
		case d.android == 10:
			f10++
			e10 += int(d.total)
		}
	})
	return makeGroup("5G", pop.FiveG, f5, e5),
		makeGroup("non-5G (Android 10)", pop.Android10No5G, f10, e10)
}

func (v *deviceVisitor) byAndroidVersion(pop fleet.Population) (android9, android10 GroupStats) {
	var f9, e9, f10, e10 int
	v.each(func(_ uint64, d *devState) {
		switch {
		case d.android == 9:
			f9++
			e9 += int(d.total)
		case !d.fiveG:
			f10++
			e10 += int(d.total)
		}
	})
	return makeGroup("Android 9", pop.Android9, f9, e9),
		makeGroup("Android 10 (non-5G)", pop.Android10No5G, f10, e10)
}

func (v *deviceVisitor) byISP(pop fleet.Population) [simnet.NumISPs]GroupStats {
	var failing, events [simnet.NumISPs]int
	v.each(func(_ uint64, d *devState) {
		// The wire decoder does not validate the ISP byte: such a device
		// counts in every total but has no row here.
		if int(d.isp) < simnet.NumISPs {
			failing[d.isp]++
			events[d.isp] += int(d.total)
		}
	})
	var out [simnet.NumISPs]GroupStats
	for i := range out {
		id := simnet.ISPID(i)
		out[i] = makeGroup(id.String(), pop.ByISP[i], failing[i], events[i])
	}
	return out
}

func (v *deviceVisitor) figure15(dwell *fleet.DwellStats) [telephony.NumSignalLevels]LevelPrevalence {
	var failing [telephony.NumSignalLevels]int
	v.each(func(_ uint64, d *devState) {
		for l := 0; l < telephony.NumSignalLevels; l++ {
			if d.levelBits&(1<<(30+uint(l))) != 0 {
				failing[l]++
			}
		}
	})
	var out [telephony.NumSignalLevels]LevelPrevalence
	for l := 0; l < telephony.NumSignalLevels; l++ {
		var exposed int64
		var seconds float64
		for rat := 0; rat < numRATs; rat++ {
			exposed += dwell.DevicesExposed[rat][l]
			seconds += dwell.Seconds[rat][l]
		}
		row := LevelPrevalence{Level: telephony.SignalLevel(l), Exposed: exposed}
		if exposed > 0 {
			row.Raw = float64(failing[l]) / float64(exposed)
			meanHours := seconds / float64(exposed) / 3600
			if meanHours > 0 {
				row.Normalized = row.Raw / meanHours
			}
		}
		out[l] = row
	}
	return out
}

func (v *deviceVisitor) figure16(dwell *fleet.DwellStats, rat telephony.RAT) [telephony.NumSignalLevels]LevelPrevalence {
	var failing [telephony.NumSignalLevels]int
	v.each(func(_ uint64, d *devState) {
		for l := 0; l < telephony.NumSignalLevels; l++ {
			if d.levelBits&(1<<(uint(rat)*telephony.NumSignalLevels+uint(l))) != 0 {
				failing[l]++
			}
		}
	})
	var out [telephony.NumSignalLevels]LevelPrevalence
	for l := 0; l < telephony.NumSignalLevels; l++ {
		exposed := dwell.DevicesExposed[rat][l]
		seconds := dwell.Seconds[rat][l]
		row := LevelPrevalence{Level: telephony.SignalLevel(l), Exposed: exposed}
		if exposed > 0 {
			row.Raw = float64(failing[l]) / float64(exposed)
			meanHours := seconds / float64(exposed) / 3600
			if meanHours > 0 {
				row.Normalized = row.Raw / meanHours
			}
		}
		out[l] = row
	}
	return out
}

// kindAgg is a per-kind 5G aggregate: distinct failing devices and events.
type kindAgg struct {
	devices, events int
}

func (v *deviceVisitor) fiveGKindStats() map[failure.Kind]kindAgg {
	var devices, events [failure.NumKinds]int
	v.each(func(_ uint64, d *devState) {
		for k := 0; k < failure.NumKinds; k++ {
			if n := d.fiveGByKind[k]; n > 0 {
				devices[k]++
				events[k] += int(n)
			}
		}
	})
	out := map[failure.Kind]kindAgg{}
	for k := 0; k < failure.NumKinds; k++ {
		if events[k] > 0 {
			out[failure.Kind(k)] = kindAgg{devices: devices[k], events: events[k]}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// causeVisitor: Table 2's Data_Setup_Error cause decomposition.

type causeVisitor struct {
	counts [telephony.NumCauseIndexes]int // by telephony.CauseIndex
	// other counts codes the registry does not define: the wire decoder
	// does not validate Cause.
	other map[telephony.FailCause]int
	total int
}

func newCauseVisitor() *causeVisitor { return &causeVisitor{} }

func (v *causeVisitor) Visit(e *failure.Event) {
	if e.Kind != failure.DataSetupError {
		return
	}
	v.total++
	if i, ok := telephony.CauseIndex(e.Cause); ok {
		v.counts[i]++
	} else {
		v.addOther(e.Cause, 1)
	}
}

func (v *causeVisitor) addOther(cause telephony.FailCause, n int) {
	if v.other == nil {
		v.other = map[telephony.FailCause]int{}
	}
	v.other[cause] += n
}

func (v *causeVisitor) Merge(o *causeVisitor) {
	for i, n := range o.counts {
		v.counts[i] += n
	}
	for cause, n := range o.other {
		v.addOther(cause, n)
	}
	v.total += o.total
}

func (v *causeVisitor) table2(topN int) []CauseRow {
	rows := make([]CauseRow, 0, len(v.counts)+len(v.other))
	add := func(cause telephony.FailCause, n int) {
		info := telephony.Info(cause)
		rows = append(rows, CauseRow{
			Cause:       cause,
			Name:        info.Name,
			Description: info.Description,
			Share:       float64(n) / float64(max(v.total, 1)),
			PaperShare:  info.Table2Share / 100,
		})
	}
	for i, n := range v.counts {
		if n > 0 {
			add(telephony.IndexedCause(i), n)
		}
	}
	for cause, n := range v.other {
		add(cause, n)
	}
	// Ties broken by cause code so the topN cut is deterministic across
	// map iteration orders.
	slices.SortFunc(rows, func(a, b CauseRow) int {
		if a.Share != b.Share {
			if a.Share > b.Share {
				return -1
			}
			return 1
		}
		return int(a.Cause) - int(b.Cause)
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return rows
}

// ---------------------------------------------------------------------------
// durationVisitor: Figure 4's scalars. The duration samples themselves are
// held once, per kind, by kindDurationVisitor; Figure 4's distribution
// reads those runs in place (stats.MergedECDF).

type durationVisitor struct {
	count        int
	total, stall time.Duration
	maxDur       time.Duration
}

func newDurationVisitor() *durationVisitor { return &durationVisitor{} }

func (v *durationVisitor) Visit(e *failure.Event) {
	v.count++
	v.total += e.Duration
	if e.Kind == failure.DataStall {
		v.stall += e.Duration
	}
	if e.Duration > v.maxDur {
		v.maxDur = e.Duration
	}
}

func (v *durationVisitor) Merge(o *durationVisitor) {
	v.count += o.count
	v.total += o.total
	v.stall += o.stall
	if o.maxDur > v.maxDur {
		v.maxDur = o.maxDur
	}
}

// figure4 finishes Figure 4 over runs, every failure's duration in
// ascending runs (kindDurationVisitor.runs).
func (v *durationVisitor) figure4(runs [][]float64) DurationStats {
	out := DurationStats{CDF: stats.MergedECDF(runs...), Max: v.maxDur}
	if out.CDF.N() > 0 {
		out.Mean = time.Duration(out.CDF.Mean() * float64(time.Second))
		out.Median = time.Duration(out.CDF.Quantile(0.5) * float64(time.Second))
		out.Under30 = out.CDF.P(30)
	}
	if v.total > 0 {
		out.StallShareOfDuration = float64(v.stall) / float64(v.total)
	}
	return out
}

// ---------------------------------------------------------------------------
// kindDurationVisitor: every failure's duration, held once, bucketed by
// kind (DurationByKind, the enhancement comparison's winsorized/KS inputs,
// and — all buckets together — Figure 4).

// otherKinds is the bucket for kind bytes >= failure.NumKinds. The wire
// decoder does not validate the kind byte, so such events can arrive;
// DurationByKind has no row for them, but they are failures all the same
// and Figure 4 counts them.
const otherKinds = failure.NumKinds

type kindDurationVisitor struct {
	byKind [failure.NumKinds + 1]samples
	hint   int
}

// newKindDurationVisitor pre-sizes each kind's sample slice on first use;
// hint is the number of events this visitor instance is expected to see
// (0 if unknown).
func newKindDurationVisitor(hint int) *kindDurationVisitor {
	// Half the pass, not a NumKinds split: the trace is dominated by two or
	// three kinds, and a mid-stream grow-copy of a multi-megabyte slice
	// costs far more than the over-reserved capacity.
	return &kindDurationVisitor{hint: hint / 2}
}

func (v *kindDurationVisitor) Visit(e *failure.Event) {
	if int(e.Kind) >= failure.NumKinds {
		v.byKind[otherKinds].add(e.Duration.Seconds())
		return
	}
	b := &v.byKind[e.Kind]
	if b.xs == nil && v.hint > 0 {
		b.xs = make([]float64, 0, v.hint)
	}
	b.add(e.Duration.Seconds())
}

func (v *kindDurationVisitor) Merge(parts []*kindDurationVisitor) {
	runs := make([]*samples, len(parts))
	for k := range v.byKind {
		for i, o := range parts {
			runs[i] = &o.byKind[k]
		}
		v.byKind[k].merge(runs)
	}
}

func (v *kindDurationVisitor) settle() {
	for k := range v.byKind {
		v.byKind[k].settle()
	}
}

// kindDurations returns one kind's ascending sample (shared, read-only).
func (v *kindDurationVisitor) kindDurations(kind failure.Kind) []float64 {
	if int(kind) < failure.NumKinds {
		return v.byKind[kind].ascending()
	}
	return nil
}

// runs returns every bucket's ascending sample (shared, read-only): every
// failure's duration, in one run per bucket.
func (v *kindDurationVisitor) runs() [][]float64 {
	runs := make([][]float64, len(v.byKind))
	for k := range v.byKind {
		runs[k] = v.byKind[k].ascending()
	}
	return runs
}

// counts is the events per kind name of every bucket that has one; the
// kind bytes past the named kinds count together, under the name
// failure.Kind gives them all ("Unknown"). It reads only sample lengths,
// so it needs no settle.
func (v *kindDurationVisitor) counts() map[string]int {
	out := map[string]int{}
	for k := range v.byKind {
		if n := len(v.byKind[k].xs); n > 0 {
			out[failure.Kind(k).String()] = n
		}
	}
	return out
}

func (v *kindDurationVisitor) durationByKind() map[failure.Kind]DurationStats {
	out := map[failure.Kind]DurationStats{}
	for k := 0; k < failure.NumKinds; k++ {
		xs := v.byKind[k].ascending()
		if len(xs) == 0 {
			continue
		}
		cdf := stats.SortedECDF(xs)
		out[failure.Kind(k)] = DurationStats{
			CDF:    cdf,
			Mean:   time.Duration(cdf.Mean() * float64(time.Second)),
			Median: time.Duration(cdf.Quantile(0.5) * float64(time.Second)),
			Max:    time.Duration(cdf.Max() * float64(time.Second)),
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// stallVisitor: Figure 10's self-recovery distribution and the per-stage
// recovery-operation estimate, both restricted to Data_Stall events.

type stallVisitor struct {
	autoFix         samples
	op1Exec, op1Fix int
	executions      [3]int
	fixed           [3]int
}

func newStallVisitor() *stallVisitor { return &stallVisitor{} }

func (v *stallVisitor) Visit(e *failure.Event) {
	if e.Kind != failure.DataStall {
		return
	}
	if e.AutoFixTime > 0 {
		v.autoFix.add(e.AutoFixTime.Seconds())
	}
	if e.OpsExecuted >= 1 {
		v.op1Exec++
		if e.ResolvedBy == android.ResolvedOp1 {
			v.op1Fix++
		}
	}
	for stage := 0; stage < 3 && stage < int(e.OpsExecuted); stage++ {
		v.executions[stage]++
	}
	switch e.ResolvedBy {
	case android.ResolvedOp1:
		v.fixed[0]++
	case android.ResolvedOp2:
		v.fixed[1]++
	case android.ResolvedOp3:
		v.fixed[2]++
	}
}

func (v *stallVisitor) Merge(parts []*stallVisitor) {
	runs := make([]*samples, len(parts))
	for i, o := range parts {
		runs[i] = &o.autoFix
		v.op1Exec += o.op1Exec
		v.op1Fix += o.op1Fix
		for j := range v.executions {
			v.executions[j] += o.executions[j]
			v.fixed[j] += o.fixed[j]
		}
	}
	v.autoFix.merge(runs)
}

func (v *stallVisitor) settle() { v.autoFix.settle() }

func (v *stallVisitor) figure10() StallAutoFix {
	xs := v.autoFix.ascending()
	out := StallAutoFix{CDF: stats.SortedECDF(xs)}
	if len(xs) > 0 {
		out.Under10 = out.CDF.P(10)
		out.Under300 = out.CDF.P(300)
	}
	if v.op1Exec > 0 {
		out.FirstOpFixRate = float64(v.op1Fix) / float64(v.op1Exec)
	}
	return out
}

func (v *stallVisitor) opSuccess() OpSuccessEstimate {
	est := OpSuccessEstimate{Executions: v.executions}
	for i := 0; i < 3; i++ {
		if est.Executions[i] > 0 {
			est.Rates[i] = float64(v.fixed[i]) / float64(est.Executions[i])
		}
	}
	return est
}

// ---------------------------------------------------------------------------
// bsVisitor: Figure 11's per-BS failure counts, in an open-addressed
// counter table. The per-event hot path is one hash + linear probe on flat
// arrays — measurably cheaper than a Go map at a million events, and the
// table is the single biggest per-event cost left after the device fusion.

// bsSlot keeps a station's key, count and urban flag in 16 bytes so a
// probe costs one cache line, not three. The urban flag rides in the top
// bit of cu; the low 63 bits are the count.
type bsSlot struct {
	key uint64
	cu  uint64
}

const bsUrbanBit = uint64(1) << 63

func (s *bsSlot) cnt() uint64   { return s.cu &^ bsUrbanBit }
func (s *bsSlot) isUrban() bool { return s.cu&bsUrbanBit != 0 }

type bsVisitor struct {
	slots []bsSlot
	used  int
	limit int // grow when used exceeds this (7/8 load factor)

	// GlobalID zero cannot live in slots (zero marks an empty slot), so it
	// gets dedicated fields.
	zeroCount uint64
	zeroUrban bool
}

const bsInitialSlots = 1 << 10

func newBSVisitor(hint int) *bsVisitor {
	// Size the table for the pass up front: a cell appears many times, so
	// hint/8 slots comfortably covers the unique-station count of a large
	// trace without the rehash chain from the minimum size.
	slots := bsInitialSlots
	for slots < hint/8 && slots < 1<<17 {
		slots *= 2
	}
	v := &bsVisitor{}
	v.alloc(slots)
	return v
}

func (v *bsVisitor) alloc(n int) {
	v.slots = make([]bsSlot, n)
	v.used = 0
	v.limit = n - n/8
}

// bsHash is a splitmix64-style finalizer: GlobalIDs concentrate entropy in
// a few bit ranges (MCC/MNC in the high bits), so they need mixing before
// masking down to a table index.
func bsHash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// add counts n failures at station id and returns how many slots the
// insert probed (the hot path ignores it; the merge test bounds it).
func (v *bsVisitor) add(id, n uint64, urban bool) int {
	if id == 0 {
		v.zeroCount += n
		v.zeroUrban = v.zeroUrban || urban
		return 0
	}
	if v.used >= v.limit {
		v.rehash(2 * len(v.slots))
	}
	cu := n
	if urban {
		cu |= bsUrbanBit
	}
	mask := uint64(len(v.slots) - 1)
	i := bsHash(id) & mask
	for probes := 1; ; probes++ {
		s := &v.slots[i]
		switch s.key {
		case id:
			s.cu = (s.cu + n) | (cu & bsUrbanBit)
			return probes
		case 0:
			s.key = id
			s.cu = cu
			v.used++
			return probes
		}
		i = (i + 1) & mask
	}
}

// rehash moves the table into n slots.
func (v *bsVisitor) rehash(n int) {
	old := v.slots
	v.alloc(n)
	for i := range old {
		if old[i].key != 0 {
			v.add(old[i].key, old[i].cnt(), old[i].isUrban())
		}
	}
}

func (v *bsVisitor) Visit(e *failure.Event) {
	v.add(e.Cell.GlobalID(), 1, e.Region == geo.Urban || e.Region == geo.TransportHub)
}

// Merge adds o's stations and returns the probes its inserts took. The
// table first grows, once, to fit both tables under the load limit:
// walking o in slot order walks its keys in hash order, and feeding those
// into a table too small to hold them sweeps the same home slots again
// and again, each sweep piling onto the clusters the last one left — a
// quadratic merge. Fitting both keeps every sweep's queue short.
func (v *bsVisitor) Merge(o *bsVisitor) int {
	n := len(v.slots)
	for v.used+o.used > n-n/8 {
		n *= 2
	}
	if n > len(v.slots) {
		v.rehash(n)
	}
	probes := 0
	for i := range o.slots {
		if s := &o.slots[i]; s.key != 0 {
			probes += v.add(s.key, s.cnt(), s.isUrban())
		}
	}
	v.zeroCount += o.zeroCount
	v.zeroUrban = v.zeroUrban || o.zeroUrban
	return probes
}

func (v *bsVisitor) figure11(topN int) BSRanking {
	type kv struct {
		id    uint64
		n     uint64
		urban bool
	}
	list := make([]kv, 0, v.used+1)
	for i := range v.slots {
		if s := &v.slots[i]; s.key != 0 {
			list = append(list, kv{s.key, s.cnt(), s.isUrban()})
		}
	}
	if v.zeroCount > 0 {
		list = append(list, kv{0, v.zeroCount, v.zeroUrban})
	}
	// Ties broken by BS id so the topN urban share is deterministic across
	// table layouts.
	slices.SortFunc(list, func(a, b kv) int {
		if a.n != b.n {
			if a.n > b.n {
				return -1
			}
			return 1
		}
		switch {
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})

	out := BSRanking{}
	var sum uint64
	xs := make([]float64, len(list))
	for i, e := range list {
		out.Counts = append(out.Counts, e.n)
		sum += e.n
		xs[i] = float64(e.n)
		if e.n > out.Max {
			out.Max = e.n
		}
	}
	if len(list) > 0 {
		out.Mean = float64(sum) / float64(len(list))
		ecdf := stats.NewECDF(xs)
		out.Median = ecdf.Quantile(0.5)
		if fit, err := stats.FitZipf(out.Counts); err == nil {
			out.Fit = fit
		}
		if topN > len(list) {
			topN = len(list)
		}
		urbanTop := 0
		for _, e := range list[:topN] {
			if e.urban {
				urbanTop++
			}
		}
		if topN > 0 {
			out.TopUrbanShare = float64(urbanTop) / float64(topN)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// ratVisitor: Figure 14's per-RAT event counts (dwell and BS census come
// from the Input at finish time).

type ratVisitor struct {
	events [numRATs]int64
}

func newRATVisitor() *ratVisitor { return &ratVisitor{} }

func (v *ratVisitor) Visit(e *failure.Event) {
	if int(e.RAT) < len(v.events) {
		v.events[e.RAT]++
	}
}

func (v *ratVisitor) Merge(o *ratVisitor) {
	for i := range v.events {
		v.events[i] += o.events[i]
	}
}

func (v *ratVisitor) figure14(dwell *fleet.DwellStats, network *simnet.Network) []RATPrevalence {
	out := make([]RATPrevalence, 0, len(telephony.AllRATs))
	for _, rat := range telephony.AllRATs {
		row := RATPrevalence{RAT: rat, Events: v.events[rat]}
		for l := 0; l < telephony.NumSignalLevels; l++ {
			row.DwellHours += dwell.Seconds[rat][l] / 3600
		}
		for _, bs := range network.Stations {
			if bs.Supports(rat) {
				row.BSes++
			}
		}
		if row.DwellHours > 0 {
			row.Prevalence = float64(row.Events) / row.DwellHours * 1000
		}
		out = append(out, row)
	}
	return out
}

// ---------------------------------------------------------------------------
// regionVisitor: per-region failure statistics.

type regionVisitor struct {
	events [geo.NumRegions]int
	total  [geo.NumRegions]time.Duration
	maxd   [geo.NumRegions]time.Duration
}

func newRegionVisitor() *regionVisitor { return &regionVisitor{} }

func (v *regionVisitor) Visit(e *failure.Event) {
	r := e.Region
	if int(r) >= geo.NumRegions {
		return
	}
	v.events[r]++
	v.total[r] += e.Duration
	if e.Duration > v.maxd[r] {
		v.maxd[r] = e.Duration
	}
}

func (v *regionVisitor) Merge(o *regionVisitor) {
	for r := 0; r < geo.NumRegions; r++ {
		v.events[r] += o.events[r]
		v.total[r] += o.total[r]
		if o.maxd[r] > v.maxd[r] {
			v.maxd[r] = o.maxd[r]
		}
	}
}

func (v *regionVisitor) byRegion() []RegionStats {
	out := make([]RegionStats, 0, geo.NumRegions)
	for r := geo.Region(0); r < geo.NumRegions; r++ {
		rs := RegionStats{Region: r, Events: v.events[r], MaxDuration: v.maxd[r]}
		if v.events[r] > 0 {
			rs.MeanDuration = v.total[r] / time.Duration(v.events[r])
		}
		out = append(out, rs)
	}
	return out
}

// ---------------------------------------------------------------------------
// timeSeriesVisitor: the bucketed failure time series, the one visitor
// outside passVisitor (TimeSeries sweeps with it alone).

type timeSeriesVisitor struct {
	bucket time.Duration
	totals []int
	byKind []map[failure.Kind]int
}

func newTimeSeriesVisitor(bucket time.Duration) *timeSeriesVisitor {
	return &timeSeriesVisitor{bucket: bucket}
}

func (v *timeSeriesVisitor) Visit(e *failure.Event) {
	i := int(e.Start / v.bucket)
	if i < 0 {
		return
	}
	for len(v.totals) <= i {
		v.totals = append(v.totals, 0)
		v.byKind = append(v.byKind, nil)
	}
	v.totals[i]++
	if v.byKind[i] == nil {
		v.byKind[i] = map[failure.Kind]int{}
	}
	v.byKind[i][e.Kind]++
}

func (v *timeSeriesVisitor) Merge(parts []*timeSeriesVisitor) {
	for _, o := range parts {
		for len(v.totals) < len(o.totals) {
			v.totals = append(v.totals, 0)
			v.byKind = append(v.byKind, nil)
		}
		for i, n := range o.totals {
			v.totals[i] += n
			for k, c := range o.byKind[i] {
				if v.byKind[i] == nil {
					v.byKind[i] = map[failure.Kind]int{}
				}
				v.byKind[i][k] += c
			}
		}
	}
}

func (v *timeSeriesVisitor) settle() {} // counts only: no sample to sort

func (v *timeSeriesVisitor) series() []TimeBucket {
	n := len(v.totals)
	if n == 0 {
		n = 1 // an empty dataset still yields one empty bucket
	}
	out := make([]TimeBucket, n)
	for i := range out {
		out[i] = TimeBucket{Start: time.Duration(i) * v.bucket, ByKind: map[failure.Kind]int{}}
		if i < len(v.totals) {
			out[i].Total = v.totals[i]
			for k, c := range v.byKind[i] {
				out[i].ByKind[k] = c
			}
		}
	}
	return out
}
