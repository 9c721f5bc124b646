package analysis

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/device"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/simnet"
	"repro/internal/telephony"
	"repro/internal/trace"
)

var (
	once        sync.Once
	vanillaIn   Input
	patchedIn   Input
	vanillaPass *Pass
	patchedPass *Pass
	vanillaReS  *fleet.Result
	catalogueCE []ModelCatalogueEntry
)

func setup(t *testing.T) (Input, Input) {
	t.Helper()
	once.Do(func() {
		base := fleet.Scenario{Seed: 17, NumDevices: 4000, Workers: 4}
		van, err := fleet.Run(base)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := fleet.Run(base.Patched(android.PaperTIMPTrigger))
		if err != nil {
			t.Fatal(err)
		}
		vanillaReS = van
		vanillaIn = FromResult(van)
		patchedIn = FromResult(pat)
		vanillaPass = NewPass(vanillaIn)
		patchedPass = NewPass(patchedIn)
		catalogueCE = modelCatalogue()
	})
	return vanillaIn, patchedIn
}

// modelCatalogue is Table 1's model list for a simulated fleet.
func modelCatalogue() []ModelCatalogueEntry {
	var out []ModelCatalogueEntry
	for _, m := range device.Models() {
		out = append(out, ModelCatalogueEntry{
			ID: m.ID, CPUGHz: m.CPUGHz, MemoryGB: m.MemoryGB, StorageGB: m.StorageGB,
			FiveG: m.FiveG, Android: m.Android,
			Prevalence: m.Prevalence, Frequency: m.Frequency,
		})
	}
	return out
}

// passes returns the one pass per run every figure test reads.
func passes(t *testing.T) (vanilla, patched *Pass) {
	t.Helper()
	setup(t)
	return vanillaPass, patchedPass
}

func TestTable1TracksPaperValues(t *testing.T) {
	pass, _ := passes(t)
	rows := pass.Table1(catalogueCE)
	if len(rows) != 34 {
		t.Fatalf("rows = %d, want 34", len(rows))
	}
	// Measured prevalence should correlate strongly with Table 1 across
	// models (same ordering of reliable vs unreliable models).
	var big, small int
	for _, r := range rows {
		if r.Devices < 20 {
			continue // too few samples for a stable estimate
		}
		if r.PaperPrevalence > 0.25 && r.Prevalence > 0.15 {
			big++
		}
		if r.PaperPrevalence < 0.05 && r.Prevalence < 0.10 {
			small++
		}
	}
	if big == 0 || small == 0 {
		t.Errorf("measured prevalences do not track paper values (big=%d small=%d)", big, small)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "Model") || len(strings.Split(out, "\n")) < 35 {
		t.Error("render too short")
	}
}

func TestTable2TopCauses(t *testing.T) {
	pass, _ := passes(t)
	rows := pass.Table2(10)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	// GPRS_REGISTRATION_FAIL leads in the paper; with hub EMM skew our
	// top cause is either it or an EMM cause, but it must rank high.
	foundGPRS := false
	var shareSum float64
	for i, r := range rows {
		if i > 0 && r.Share > rows[i-1].Share {
			t.Error("rows not sorted by share")
		}
		shareSum += r.Share
		if r.Cause == telephony.CauseGPRSRegistrationFail {
			foundGPRS = true
			if r.PaperShare != 0.128 {
				t.Errorf("paper share = %v", r.PaperShare)
			}
		}
		if r.Cause.IsFalsePositive() {
			t.Errorf("false positive %v in Table 2", r.Name)
		}
	}
	if !foundGPRS {
		t.Error("GPRS_REGISTRATION_FAIL missing from top 10")
	}
	if shareSum < 0.3 || shareSum > 0.95 {
		t.Errorf("top-10 share sum = %.2f (paper: 46.7%%)", shareSum)
	}
	if !strings.Contains(RenderTable2(rows), "GPRS_REGISTRATION_FAIL") {
		t.Error("render missing cause names")
	}
}

func TestFigure3FailuresPerPhone(t *testing.T) {
	pass, _ := passes(t)
	f := pass.Figure3()
	if f.Mean < 15 || f.Mean > 80 {
		t.Errorf("mean failures per phone = %.1f (paper: 33)", f.Mean)
	}
	// Paper: 77% of phones experience no failures.
	if f.ZeroShare < 0.70 || f.ZeroShare > 0.85 {
		t.Errorf("zero share = %.2f (paper: 0.77)", f.ZeroShare)
	}
	// Paper: 95% of phones see no Out_of_Service events.
	if f.OOSFreeShare < 0.90 {
		t.Errorf("OOS-free share = %.2f (paper: 0.95)", f.OOSFreeShare)
	}
	// Setup > stall > OOS per-capita means (16 / 14 / 3).
	setup := f.MeanPerKind[failure.DataSetupError]
	stall := f.MeanPerKind[failure.DataStall]
	oos := f.MeanPerKind[failure.OutOfService]
	if !(setup > stall && stall > oos) {
		t.Errorf("per-kind means setup=%.1f stall=%.1f oos=%.1f; want setup>stall>oos", setup, stall, oos)
	}
	if f.Max <= 10*f.Mean {
		t.Errorf("max %.0f should dwarf mean %.1f (paper max: 198,228)", f.Max, f.Mean)
	}
	if f.CDF.P(0) != f.ZeroShare {
		t.Error("CDF inconsistent with zero share")
	}
}

func TestFigure4Durations(t *testing.T) {
	pass, _ := passes(t)
	d := pass.Figure4()
	if d.Mean <= 0 || d.Median <= 0 {
		t.Fatalf("degenerate durations: %+v", d)
	}
	// Highly skewed distribution: most failures are short, the tail long.
	if d.Under30 < 0.60 {
		t.Errorf("fraction under 30s = %.2f (paper: 0.708)", d.Under30)
	}
	if d.Max < 10*time.Minute {
		t.Errorf("max duration %v; long-tail outages expected", d.Max)
	}
	if d.Mean < d.Median {
		t.Error("skew: mean should exceed median")
	}
	// Data_Stall dominates total failure duration (paper: 94%; our
	// simulator's recovery-capped stalls still dominate at >30%).
	if d.StallShareOfDuration < 0.30 {
		t.Errorf("stall duration share = %.2f", d.StallShareOfDuration)
	}
}

func TestBy5GAndAndroidOrdering(t *testing.T) {
	pass, _ := passes(t)
	fiveG, non5G := pass.By5G()
	if fiveG.Prevalence <= non5G.Prevalence || fiveG.Frequency <= non5G.Frequency {
		t.Errorf("5G %+v should exceed non-5G %+v", fiveG, non5G)
	}
	a9, a10 := pass.ByAndroidVersion()
	if a10.Prevalence <= a9.Prevalence || a10.Frequency <= a9.Frequency {
		t.Errorf("Android 10 %+v should exceed Android 9 %+v", a10, a9)
	}
	out := RenderGroups("by 5G", []GroupStats{fiveG, non5G})
	if !strings.Contains(out, "5G") {
		t.Error("render broken")
	}
}

func TestFigure10AutoFix(t *testing.T) {
	pass, _ := passes(t)
	f := pass.Figure10()
	if f.CDF.N() == 0 {
		t.Fatal("no auto-fix samples")
	}
	if math.Abs(f.Under10-0.60) > 0.10 {
		t.Errorf("P(auto-fix <= 10s) = %.2f (paper: 0.60)", f.Under10)
	}
	if f.Under300 < 0.80 {
		t.Errorf("P(auto-fix <= 300s) = %.2f (paper: >0.80)", f.Under300)
	}
	// First-stage cleanup effectiveness once executed (paper: 75%).
	if f.FirstOpFixRate < 0.5 || f.FirstOpFixRate > 0.95 {
		t.Errorf("first-op fix rate = %.2f (paper: 0.75)", f.FirstOpFixRate)
	}
}

func TestFigure11Ranking(t *testing.T) {
	pass, _ := passes(t)
	r := pass.Figure11(100)
	if len(r.Counts) == 0 {
		t.Fatal("no BS ranking")
	}
	if r.Fit.A <= 0.3 {
		t.Errorf("Zipf exponent = %.2f, want clearly positive skew (paper: 0.82)", r.Fit.A)
	}
	if float64(r.Max) < 10*r.Mean {
		t.Errorf("max %d vs mean %.1f: ranking should be heavily skewed", r.Max, r.Mean)
	}
	if r.Median > r.Mean {
		t.Error("skew: median should be below mean")
	}
	// Top-ranked BSes concentrate in crowded areas (paper's finding).
	if r.TopUrbanShare < 0.5 {
		t.Errorf("top urban/hub share = %.2f, want majority", r.TopUrbanShare)
	}
	if !strings.Contains(RenderRanking(r), "Zipf") {
		t.Error("render broken")
	}
}

func TestByISPOrdering(t *testing.T) {
	pass, _ := passes(t)
	groups := pass.ByISP()
	b, a, c := groups[simnet.ISPB], groups[simnet.ISPA], groups[simnet.ISPC]
	if !(b.Prevalence > a.Prevalence && a.Prevalence > c.Prevalence) {
		t.Errorf("ISP prevalence ordering: B=%.3f A=%.3f C=%.3f", b.Prevalence, a.Prevalence, c.Prevalence)
	}
	if !(b.Frequency > c.Frequency) {
		t.Errorf("ISP frequency ordering: B=%.1f C=%.1f", b.Frequency, c.Frequency)
	}
}

func TestFigure14RATOrdering(t *testing.T) {
	pass, _ := passes(t)
	rows := pass.Figure14()
	byRAT := map[telephony.RAT]RATPrevalence{}
	for _, r := range rows {
		byRAT[r.RAT] = r
	}
	// Figure 14: 3G BSes see lower failure prevalence than 2G and 4G;
	// 5G BSes the highest.
	if byRAT[telephony.RAT3G].Prevalence >= byRAT[telephony.RAT2G].Prevalence {
		t.Errorf("3G prevalence %.3f should be below 2G %.3f",
			byRAT[telephony.RAT3G].Prevalence, byRAT[telephony.RAT2G].Prevalence)
	}
	if byRAT[telephony.RAT3G].Prevalence >= byRAT[telephony.RAT4G].Prevalence {
		t.Errorf("3G prevalence %.3f should be below 4G %.3f",
			byRAT[telephony.RAT3G].Prevalence, byRAT[telephony.RAT4G].Prevalence)
	}
	if byRAT[telephony.RAT5G].Prevalence <= byRAT[telephony.RAT4G].Prevalence {
		t.Errorf("5G prevalence %.3f should exceed 4G %.3f",
			byRAT[telephony.RAT5G].Prevalence, byRAT[telephony.RAT4G].Prevalence)
	}
	for _, r := range rows {
		if r.BSes == 0 {
			t.Errorf("no BSes support %v", r.RAT)
		}
	}
}

func TestFigure15SignalAnomaly(t *testing.T) {
	pass, _ := passes(t)
	levels := pass.Figure15()
	// Normalized prevalence decreases monotonically from level 0 to 4...
	for l := 1; l <= 4; l++ {
		if levels[l].Normalized >= levels[l-1].Normalized {
			t.Errorf("normalized prevalence not decreasing at level %d: %.4f >= %.4f",
				l, levels[l].Normalized, levels[l-1].Normalized)
		}
	}
	// ...then jumps at level 5 above every level 1-4 (the transport-hub
	// anomaly).
	for l := 1; l <= 4; l++ {
		if levels[5].Normalized <= levels[l].Normalized {
			t.Errorf("level-5 normalized prevalence %.4f should exceed level-%d %.4f",
				levels[5].Normalized, l, levels[l].Normalized)
		}
	}
	out := RenderLevels("fig15", levels)
	if !strings.Contains(out, "level-5") {
		t.Error("render broken")
	}
}

func TestFigure16PerRAT(t *testing.T) {
	pass, _ := passes(t)
	l4 := pass.Figure16(telephony.RAT4G)
	l5 := pass.Figure16(telephony.RAT5G)
	if l4[0].Normalized <= l4[4].Normalized {
		t.Error("4G level-0 should be riskier than level-4")
	}
	// 5G rows exist only where 5G was camped.
	var any5 bool
	for _, l := range l5 {
		if l.Exposed > 0 {
			any5 = true
		}
	}
	if !any5 {
		t.Error("no 5G exposure recorded")
	}
}

func TestFigure17DarkCellsAtLevelZero(t *testing.T) {
	pass, _ := passes(t)
	p := pass.Figure17(telephony.RAT4G, telephony.RAT5G)
	// The j=0 column must carry the largest increases where observed
	// (Figure 17f's dark cells).
	var maxJ0, maxRest float64
	for i := 0; i < telephony.NumSignalLevels; i++ {
		if p.Observed[i][0] && p.Increase[i][0] > maxJ0 {
			maxJ0 = p.Increase[i][0]
		}
		for j := 1; j < telephony.NumSignalLevels; j++ {
			if p.Observed[i][j] && p.Increase[i][j] > maxRest {
				maxRest = p.Increase[i][j]
			}
		}
	}
	if maxJ0 <= maxRest {
		t.Errorf("level-0 column max increase %.3f should exceed other columns' %.3f", maxJ0, maxRest)
	}
	if !strings.Contains(RenderHeatmap(p), "j=0") {
		t.Error("render broken")
	}
	if len(Figure17Pairs()) != 6 {
		t.Error("Figure 17 has six panels")
	}
}

func TestEnhancementReport(t *testing.T) {
	van, pat := passes(t)
	rep := CompareEnhancement(van, pat)
	if rep.FiveGFrequencyChange > -0.20 || rep.FiveGFrequencyChange < -0.70 {
		t.Errorf("5G frequency change = %.2f (paper: -0.403)", rep.FiveGFrequencyChange)
	}
	if rep.FiveGPrevalenceChange > 0.02 {
		t.Errorf("5G prevalence change = %.2f, should not increase", rep.FiveGPrevalenceChange)
	}
	if rep.StallDurationChange > -0.20 || rep.StallDurationChange < -0.70 {
		t.Errorf("stall duration change = %.2f (paper: -0.38)", rep.StallDurationChange)
	}
	if rep.TotalDurationChange >= 0 {
		t.Errorf("total duration change = %.2f, should be a reduction", rep.TotalDurationChange)
	}
	if len(rep.ByKind) != 3 {
		t.Fatalf("ByKind = %d entries", len(rep.ByKind))
	}
	for _, kd := range rep.ByKind {
		if kd.Kind == failure.DataStall && kd.FrequencyChange > 0.1 {
			t.Errorf("stall frequency should drop on 5G phones, got %+.2f", kd.FrequencyChange)
		}
	}
	// The trigger change must visibly shift the stall duration CDF.
	if rep.StallKS < 0.05 {
		t.Errorf("stall KS distance = %.3f, want a visible distribution shift", rep.StallKS)
	}
	out := RenderEnhancement(rep)
	if !strings.Contains(out, "paper") {
		t.Error("render broken")
	}
}

func TestOverheadReport(t *testing.T) {
	_, _ = setup(t)
	o := vanillaReS.Overhead
	rep := CheckOverhead(o.MeanCPUUtilization, o.MaxCPUUtilization, o.MaxMemoryBytes, o.MaxStorageBytes, o.MaxNetworkBytes, 8)
	if !rep.WithinTypicalBudget {
		t.Errorf("typical budget violated: %+v", rep)
	}
	if !rep.WithinWorstBudget {
		t.Errorf("worst-case budget violated: %+v", rep)
	}
	bad := CheckOverhead(0.5, 0.9, 1<<30, 1<<30, 1<<40, 0)
	if bad.WithinTypicalBudget || bad.WithinWorstBudget {
		t.Error("absurd overheads passed the budget check")
	}
}

func TestDurationByKind(t *testing.T) {
	pass, _ := passes(t)
	m := pass.DurationByKind()
	if _, ok := m[failure.DataStall]; !ok {
		t.Fatal("no stall durations")
	}
	if m[failure.DataStall].Mean <= m[failure.DataSetupError].Mean {
		t.Error("stalls should last longer than setup-error episodes on average")
	}
}

func TestRenderCDF(t *testing.T) {
	pass, _ := passes(t)
	d := pass.Figure4()
	out := RenderCDF("durations", "s", d.CDF, 12)
	if !strings.Contains(out, "#") || !strings.Contains(out, "durations") {
		t.Error("render broken")
	}
}

func TestHardwareCorrelation(t *testing.T) {
	pass, _ := passes(t)
	rows := pass.HardwareCorrelation(catalogueCE)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]FeatureCorrelation{}
	for _, r := range rows {
		byName[r.Feature] = r
		if r.WithPrevalence < -1 || r.WithPrevalence > 1 || r.WithFrequency < -1 || r.WithFrequency > 1 {
			t.Fatalf("correlation out of range: %+v", r)
		}
	}
	// §3.2: Android version and 5G capability drive failures; both should
	// correlate positively with prevalence, and Android 10 strongly so.
	if byName["android10"].WithPrevalence <= 0.2 {
		t.Errorf("android10 r = %+.2f, want clearly positive", byName["android10"].WithPrevalence)
	}
	if byName["5g_capable"].WithPrevalence <= 0 {
		t.Errorf("5g r = %+.2f, want positive", byName["5g_capable"].WithPrevalence)
	}
	// The counter-intuitive §3.2 finding: better hardware does NOT reduce
	// failures (its correlation with prevalence is not negative).
	if byName["cpu_ghz"].WithPrevalence < -0.1 {
		t.Errorf("cpu r = %+.2f; better hardware should not appear protective", byName["cpu_ghz"].WithPrevalence)
	}
	out := RenderCorrelation(rows)
	if !strings.Contains(out, "android10") {
		t.Error("render broken")
	}
}

func TestBuildReport(t *testing.T) {
	van, pat := passes(t)
	o := vanillaReS.Overhead
	overhead := CheckOverhead(o.MeanCPUUtilization, o.MaxCPUUtilization, o.MaxMemoryBytes, o.MaxStorageBytes, o.MaxNetworkBytes, 8)
	rep := BuildReport(van, pat, ReportConfig{
		Devices:   vanillaReS.Population.Total,
		Months:    8,
		Seed:      17,
		Catalogue: catalogueCE,
		TIMP:      &TIMPSummary{Probations: [3]float64{21, 6, 16}, Cost: 27.8, DefaultCost: 38, Improvement: 0.268, Samples: 1000},
		Overhead:  &overhead,
		FPClasses: map[string]int{"bs-overload": 10, "system-side": 3},
		Recorded:  vanillaReS.Dataset.Len(),
	})
	if len(rep.GeneralRows) < 10 {
		t.Fatalf("general rows = %d", len(rep.GeneralRows))
	}
	md := rep.Markdown(time.Second)
	for _, want := range []string{
		"# EXPERIMENTS", "Table 1", "Table 2", "Figure 10", "Figure 11",
		"Figure 15", "Figure 17", "TIMP", "Figures 19–21", "Monitoring overhead",
		"False-positive filtering", "5G failure frequency change",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Without optional blocks, the report still builds.
	slim := BuildReport(van, nil, ReportConfig{Catalogue: catalogueCE})
	if strings.Contains(slim.Markdown(0), "Figures 19–21") {
		t.Error("enhancement section should be absent without a patched input")
	}
}

func TestTimeSeriesStationaryAndSpikes(t *testing.T) {
	in, _ := setup(t)
	series := TimeSeries(in, 7*24*time.Hour)
	if len(series) < 30 {
		t.Fatalf("buckets = %d over 8 months of weekly buckets", len(series))
	}
	// The vanilla generator is stationary: no bucket dwarfs the median.
	if idx := SpikeIndex(series); idx > 3 {
		t.Errorf("spike index = %.1f for a stationary fleet", idx)
	}
	total := 0
	for _, b := range series {
		total += b.Total
		if b.ByKind == nil {
			t.Fatal("bucket without kind map")
		}
	}
	if total != in.Dataset.Len() {
		t.Errorf("series total %d, dataset %d", total, in.Dataset.Len())
	}
	if SpikeIndex(nil) != 0 {
		t.Error("empty series spike index should be 0")
	}
}

func TestByRegionNeglectedRemote(t *testing.T) {
	pass, _ := passes(t)
	rows := pass.ByRegion()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byRegion := map[string]RegionStats{}
	for _, r := range rows {
		byRegion[r.Region.String()] = r
	}
	urban, remote := byRegion["urban"], byRegion["remote"]
	if urban.Events == 0 {
		t.Fatal("no urban failures")
	}
	// Urban hosts the most failures (crowded areas, §3.3)...
	for _, r := range rows {
		if r.Region.String() != "urban" && r.Events > urban.Events {
			t.Errorf("%v events %d exceed urban %d", r.Region, r.Events, urban.Events)
		}
	}
	// ...while remote failures last far longer (neglected infrastructure).
	if remote.Events > 0 && remote.MeanDuration < 2*urban.MeanDuration {
		t.Errorf("remote mean %v should dwarf urban %v", remote.MeanDuration, urban.MeanDuration)
	}
}

func TestGuidelinesDerivedFromData(t *testing.T) {
	pass, _ := passes(t)
	gs := pass.Guidelines()
	// Every §4.1 recommendation should fire on a standard vanilla fleet.
	if len(gs) < 5 {
		t.Fatalf("guidelines = %d, want the full §4.1 set", len(gs))
	}
	audiences := map[Audience]int{}
	for _, g := range gs {
		audiences[g.Audience]++
		if g.Finding == "" || g.Advice == "" || g.Evidence == "" {
			t.Errorf("incomplete guideline: %+v", g)
		}
	}
	for _, a := range []Audience{AudienceVendor, AudienceISP, AudienceOS} {
		if audiences[a] == 0 {
			t.Errorf("no guidance for %s", a)
		}
	}
	out := RenderGuidelines(gs)
	if !strings.Contains(out, "TIMP") || !strings.Contains(out, "idle 3G") {
		t.Errorf("render missing key recommendations:\n%s", out)
	}
}

func TestGuidelinesEmptyDataset(t *testing.T) {
	in := Input{
		Dataset:     trace.NewDataset(),
		Transitions: &fleet.TransitionMatrix{},
		Dwell:       &fleet.DwellStats{},
		Network:     simnet.FromStations(nil),
	}
	// No findings hold on an empty dataset; must not panic and must stay
	// quiet rather than inventing advice.
	if gs := NewPass(in).Guidelines(); len(gs) != 0 {
		t.Errorf("empty dataset produced %d guidelines", len(gs))
	}
}

func TestClaimsAllPassOnStandardFleet(t *testing.T) {
	pass, _ := passes(t)
	results := pass.Claims()
	if len(results) < 15 {
		t.Fatalf("claims = %d", len(results))
	}
	for _, r := range results {
		if !r.Pass {
			t.Errorf("[%s] failed: %s (measured: %s)", r.ID, r.Text, r.Detail)
		}
	}
	out := RenderClaims(results)
	if !strings.Contains(out, "claims reproduced") {
		t.Error("render broken")
	}
}

func TestEstimateOpSuccess(t *testing.T) {
	pass, _ := passes(t)
	est := pass.EstimateOpSuccess()
	if est.Executions[0] == 0 {
		t.Fatal("no first-stage executions observed")
	}
	// Paper: cleanup fixes ~75% once executed; our generator uses the
	// same rate, so the estimate should land near it.
	if math.Abs(est.Rates[0]-0.75) > 0.1 {
		t.Errorf("op1 rate = %.2f, want ≈0.75", est.Rates[0])
	}
	// Later stages execute less often (earlier stages fix most stalls).
	if est.Executions[1] >= est.Executions[0] || est.Executions[2] >= est.Executions[1] {
		t.Errorf("execution counts not decreasing: %v", est.Executions)
	}
	for i, r := range est.Rates {
		if r < 0 || r > 1 {
			t.Errorf("rate %d = %v", i, r)
		}
	}
}

func TestRenderRegions(t *testing.T) {
	pass, _ := passes(t)
	out := RenderRegions(pass.ByRegion())
	if !strings.Contains(out, "remote") || !strings.Contains(out, "urban") {
		t.Errorf("render: %s", out)
	}
}
