package analysis

import (
	"sort"
	"time"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telephony"
)

// legacySource is the pre-engine implementation of the figure-extraction
// surface: every method runs its own sequential Dataset.Each scan, exactly
// as the package did before the single-pass engine. It is kept as the
// oracle the fused Pass must match byte for byte. The only deliberate
// differences from the historical code are the deterministic tie-breaks in
// Table2 and Figure11, which were added to both paths at the same time.
type legacySource struct {
	in Input
}

func (s legacySource) input() Input { return s.in }

// perDevice summarises one device's events.
type perDevice struct {
	modelID int
	fiveG   bool
	android int
	isp     simnet.ISPID
	total   int
	byKind  [failure.NumKinds]int
}

func (s legacySource) scan() map[uint64]*perDevice {
	devs := make(map[uint64]*perDevice)
	s.in.Dataset.Each(func(e *failure.Event) {
		d := devs[e.DeviceID]
		if d == nil {
			d = &perDevice{modelID: int(e.ModelID), fiveG: e.FiveGCapable, android: int(e.AndroidVersion), isp: e.ISP}
			devs[e.DeviceID] = d
		}
		d.total++
		if int(e.Kind) < len(d.byKind) {
			d.byKind[e.Kind]++
		}
	})
	return devs
}

func (s legacySource) Table1(catalogue []ModelCatalogueEntry) []ModelRow {
	failing := make(map[int]int)
	events := make(map[int]int)
	for _, d := range s.scan() {
		failing[d.modelID]++
		events[d.modelID] += d.total
	}
	rows := make([]ModelRow, 0, len(catalogue))
	for _, m := range catalogue {
		devices := s.in.Population.ByModel[m.ID]
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

func (s legacySource) Table2(topN int) []CauseRow {
	counts := map[telephony.FailCause]int{}
	total := 0
	s.in.Dataset.Each(func(e *failure.Event) {
		if e.Kind == failure.DataSetupError {
			counts[e.Cause]++
			total++
		}
	})
	rows := make([]CauseRow, 0, len(counts))
	for cause, n := range counts {
		info := telephony.Info(cause)
		rows = append(rows, CauseRow{
			Cause:       cause,
			Name:        info.Name,
			Description: info.Description,
			Share:       float64(n) / float64(max(total, 1)),
			PaperShare:  info.Table2Share / 100,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Share != rows[j].Share {
			return rows[i].Share > rows[j].Share
		}
		return rows[i].Cause < rows[j].Cause
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return rows
}

func (s legacySource) Figure3() FailuresPerPhone {
	devs := s.scan()
	total := s.in.Population.Total
	out := FailuresPerPhone{MeanPerKind: map[failure.Kind]float64{}}
	counts := make([]float64, 0, total)
	oosDevices := 0
	var sum float64
	kindSums := map[failure.Kind]float64{}
	for _, d := range devs {
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
	}
	for i := len(devs); i < total; i++ {
		counts = append(counts, 0)
	}
	out.CDF = stats.NewECDF(counts)
	if total > 0 {
		out.Mean = sum / float64(total)
		out.ZeroShare = float64(total-len(devs)) / float64(total)
		out.OOSFreeShare = float64(total-oosDevices) / float64(total)
		for k, ks := range kindSums {
			out.MeanPerKind[k] = ks / float64(total)
		}
	}
	return out
}

func (s legacySource) Figure4() DurationStats {
	var durs []float64
	var total, stall time.Duration
	var maxDur time.Duration
	s.in.Dataset.Each(func(e *failure.Event) {
		durs = append(durs, e.Duration.Seconds())
		total += e.Duration
		if e.Kind == failure.DataStall {
			stall += e.Duration
		}
		if e.Duration > maxDur {
			maxDur = e.Duration
		}
	})
	out := DurationStats{CDF: stats.NewECDF(durs), Max: maxDur}
	if len(durs) > 0 {
		out.Mean = time.Duration(out.CDF.Mean() * float64(time.Second))
		out.Median = time.Duration(out.CDF.Quantile(0.5) * float64(time.Second))
		out.Under30 = out.CDF.P(30)
	}
	if total > 0 {
		out.StallShareOfDuration = float64(stall) / float64(total)
	}
	return out
}

func (s legacySource) By5G() (fiveG, non5G GroupStats) {
	devs := s.scan()
	var f5, e5, f10, e10 int
	for _, d := range devs {
		switch {
		case d.fiveG:
			f5++
			e5 += d.total
		case d.android == 10:
			f10++
			e10 += d.total
		}
	}
	return makeGroup("5G", s.in.Population.FiveG, f5, e5),
		makeGroup("non-5G (Android 10)", s.in.Population.Android10No5G, f10, e10)
}

func (s legacySource) ByAndroidVersion() (android9, android10 GroupStats) {
	devs := s.scan()
	var f9, e9, f10, e10 int
	for _, d := range devs {
		switch {
		case d.android == 9:
			f9++
			e9 += d.total
		case !d.fiveG:
			f10++
			e10 += d.total
		}
	}
	return makeGroup("Android 9", s.in.Population.Android9, f9, e9),
		makeGroup("Android 10 (non-5G)", s.in.Population.Android10No5G, f10, e10)
}

func (s legacySource) ByISP() [simnet.NumISPs]GroupStats {
	devs := s.scan()
	var failing, events [simnet.NumISPs]int
	for _, d := range devs {
		failing[d.isp]++
		events[d.isp] += d.total
	}
	var out [simnet.NumISPs]GroupStats
	for i := range out {
		id := simnet.ISPID(i)
		out[i] = makeGroup(id.String(), s.in.Population.ByISP[i], failing[i], events[i])
	}
	return out
}

func (s legacySource) Figure10() StallAutoFix {
	var xs []float64
	var op1Exec, op1Fix int
	s.in.Dataset.Each(func(e *failure.Event) {
		if e.Kind != failure.DataStall {
			return
		}
		if e.AutoFixTime > 0 {
			xs = append(xs, e.AutoFixTime.Seconds())
		}
		if e.OpsExecuted >= 1 {
			op1Exec++
			if e.ResolvedBy == android.ResolvedOp1 {
				op1Fix++
			}
		}
	})
	out := StallAutoFix{CDF: stats.NewECDF(xs)}
	if len(xs) > 0 {
		out.Under10 = out.CDF.P(10)
		out.Under300 = out.CDF.P(300)
	}
	if op1Exec > 0 {
		out.FirstOpFixRate = float64(op1Fix) / float64(op1Exec)
	}
	return out
}

func (s legacySource) Figure11(topN int) BSRanking {
	counts := map[uint64]uint64{}
	urban := map[uint64]bool{}
	s.in.Dataset.Each(func(e *failure.Event) {
		id := e.Cell.GlobalID()
		counts[id]++
		if e.Region == geo.Urban || e.Region == geo.TransportHub {
			urban[id] = true
		}
	})
	type kv struct {
		id uint64
		n  uint64
	}
	list := make([]kv, 0, len(counts))
	for id, n := range counts {
		list = append(list, kv{id, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].id < list[j].id
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
			if urban[e.id] {
				urbanTop++
			}
		}
		if topN > 0 {
			out.TopUrbanShare = float64(urbanTop) / float64(topN)
		}
	}
	return out
}

func (s legacySource) Figure14() []RATPrevalence {
	var events [5]int64
	s.in.Dataset.Each(func(e *failure.Event) {
		if int(e.RAT) < len(events) {
			events[e.RAT]++
		}
	})
	out := make([]RATPrevalence, 0, len(telephony.AllRATs))
	for _, rat := range telephony.AllRATs {
		row := RATPrevalence{RAT: rat, Events: events[rat]}
		for l := 0; l < telephony.NumSignalLevels; l++ {
			row.DwellHours += s.in.Dwell.Seconds[rat][l] / 3600
		}
		for _, bs := range s.in.Network.Stations {
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

func (s legacySource) Figure15() [telephony.NumSignalLevels]LevelPrevalence {
	failing := [telephony.NumSignalLevels]map[uint64]bool{}
	for l := range failing {
		failing[l] = map[uint64]bool{}
	}
	s.in.Dataset.Each(func(e *failure.Event) {
		if e.Level.Valid() {
			failing[e.Level][e.DeviceID] = true
		}
	})
	var out [telephony.NumSignalLevels]LevelPrevalence
	for l := 0; l < telephony.NumSignalLevels; l++ {
		var exposed int64
		var seconds float64
		for rat := 0; rat < 5; rat++ {
			exposed += s.in.Dwell.DevicesExposed[rat][l]
			seconds += s.in.Dwell.Seconds[rat][l]
		}
		row := LevelPrevalence{Level: telephony.SignalLevel(l), Exposed: exposed}
		if exposed > 0 {
			row.Raw = float64(len(failing[l])) / float64(exposed)
			meanHours := seconds / float64(exposed) / 3600
			if meanHours > 0 {
				row.Normalized = row.Raw / meanHours
			}
		}
		out[l] = row
	}
	return out
}

func (s legacySource) Figure16(rat telephony.RAT) [telephony.NumSignalLevels]LevelPrevalence {
	failing := [telephony.NumSignalLevels]map[uint64]bool{}
	for l := range failing {
		failing[l] = map[uint64]bool{}
	}
	s.in.Dataset.Each(func(e *failure.Event) {
		if e.RAT == rat && e.Level.Valid() {
			failing[e.Level][e.DeviceID] = true
		}
	})
	var out [telephony.NumSignalLevels]LevelPrevalence
	for l := 0; l < telephony.NumSignalLevels; l++ {
		exposed := s.in.Dwell.DevicesExposed[rat][l]
		seconds := s.in.Dwell.Seconds[rat][l]
		row := LevelPrevalence{Level: telephony.SignalLevel(l), Exposed: exposed}
		if exposed > 0 {
			row.Raw = float64(len(failing[l])) / float64(exposed)
			meanHours := seconds / float64(exposed) / 3600
			if meanHours > 0 {
				row.Normalized = row.Raw / meanHours
			}
		}
		out[l] = row
	}
	return out
}

func (s legacySource) kindDurations(kind failure.Kind) []float64 {
	var xs []float64
	s.in.Dataset.Each(func(e *failure.Event) {
		if e.Kind == kind {
			xs = append(xs, e.Duration.Seconds())
		}
	})
	return xs
}

func (s legacySource) fiveGKindStats() map[failure.Kind]kindAgg {
	type agg struct {
		devs   map[uint64]bool
		events int
	}
	m := map[failure.Kind]*agg{}
	s.in.Dataset.Each(func(e *failure.Event) {
		if !e.FiveGCapable {
			return
		}
		a := m[e.Kind]
		if a == nil {
			a = &agg{devs: map[uint64]bool{}}
			m[e.Kind] = a
		}
		a.devs[e.DeviceID] = true
		a.events++
	})
	out := make(map[failure.Kind]kindAgg, len(m))
	for k, a := range m {
		out[k] = kindAgg{devices: len(a.devs), events: a.events}
	}
	return out
}

// legacyTimeSeries is the original two-pass bucketing.
func legacyTimeSeries(in Input, bucket time.Duration) []TimeBucket {
	if bucket <= 0 {
		bucket = 7 * 24 * time.Hour
	}
	var maxStart time.Duration
	in.Dataset.Each(func(e *failure.Event) {
		if e.Start > maxStart {
			maxStart = e.Start
		}
	})
	n := int(maxStart/bucket) + 1
	out := make([]TimeBucket, n)
	for i := range out {
		out[i] = TimeBucket{Start: time.Duration(i) * bucket, ByKind: map[failure.Kind]int{}}
	}
	in.Dataset.Each(func(e *failure.Event) {
		i := int(e.Start / bucket)
		if i >= 0 && i < n {
			out[i].Total++
			out[i].ByKind[e.Kind]++
		}
	})
	return out
}

// legacyDurationByKind is the original per-kind duration scan.
func legacyDurationByKind(in Input) map[failure.Kind]DurationStats {
	byKind := map[failure.Kind][]float64{}
	in.Dataset.Each(func(e *failure.Event) {
		byKind[e.Kind] = append(byKind[e.Kind], e.Duration.Seconds())
	})
	out := map[failure.Kind]DurationStats{}
	for kind, xs := range byKind {
		cdf := stats.NewECDF(xs)
		out[kind] = DurationStats{
			CDF:    cdf,
			Mean:   time.Duration(cdf.Mean() * float64(time.Second)),
			Median: time.Duration(cdf.Quantile(0.5) * float64(time.Second)),
			Max:    time.Duration(cdf.Max() * float64(time.Second)),
		}
	}
	return out
}

// legacyByRegion is the original per-region scan.
func legacyByRegion(in Input) []RegionStats {
	var events [geo.NumRegions]int
	var total [geo.NumRegions]time.Duration
	var maxd [geo.NumRegions]time.Duration
	in.Dataset.Each(func(e *failure.Event) {
		r := e.Region
		if int(r) >= geo.NumRegions {
			return
		}
		events[r]++
		total[r] += e.Duration
		if e.Duration > maxd[r] {
			maxd[r] = e.Duration
		}
	})
	out := make([]RegionStats, 0, geo.NumRegions)
	for r := geo.Region(0); r < geo.NumRegions; r++ {
		rs := RegionStats{Region: r, Events: events[r], MaxDuration: maxd[r]}
		if events[r] > 0 {
			rs.MeanDuration = total[r] / time.Duration(events[r])
		}
		out = append(out, rs)
	}
	return out
}

// legacyEstimateOpSuccess is the original recovery-stage scan.
func legacyEstimateOpSuccess(in Input) OpSuccessEstimate {
	var est OpSuccessEstimate
	var fixed [3]int
	in.Dataset.Each(func(e *failure.Event) {
		if e.Kind != failure.DataStall {
			return
		}
		for stage := 0; stage < 3 && stage < int(e.OpsExecuted); stage++ {
			est.Executions[stage]++
		}
		switch e.ResolvedBy {
		case android.ResolvedOp1:
			fixed[0]++
		case android.ResolvedOp2:
			fixed[1]++
		case android.ResolvedOp3:
			fixed[2]++
		}
	})
	for i := 0; i < 3; i++ {
		if est.Executions[i] > 0 {
			est.Rates[i] = float64(fixed[i]) / float64(est.Executions[i])
		}
	}
	return est
}
