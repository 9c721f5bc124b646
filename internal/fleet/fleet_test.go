package fleet

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/device"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/telephony"
	"repro/internal/trace"
	"repro/internal/trace/ring"
)

func runFleet(t *testing.T, s Scenario) *Result {
	t.Helper()
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func baseScenario(n int) Scenario {
	return Scenario{Seed: 42, NumDevices: n, Workers: 4}
}

func TestRunProducesEvents(t *testing.T) {
	res := runFleet(t, baseScenario(800))
	if res.Dataset.Len() == 0 {
		t.Fatal("no events produced")
	}
	if res.Population.Total != 800 {
		t.Errorf("population = %d", res.Population.Total)
	}
	if res.StationsPerRAT == ([telephony.RAT5G + 1]int64{}) {
		t.Error("no deployment")
	}
	if res.String() == "" {
		t.Error("empty result description")
	}
}

func TestScenarioDefaults(t *testing.T) {
	s := Scenario{}.withDefaults()
	if s.NumDevices <= 0 || s.Window != EightMonths || s.NumBS < 200 {
		t.Errorf("defaults: %+v", s)
	}
	if s.Trigger.Name() != "fixed" {
		t.Errorf("default trigger %q", s.Trigger.Name())
	}
	if s.Calibration == nil {
		t.Error("calibration defaults missing")
	}
}

func TestPatchedScenario(t *testing.T) {
	s := baseScenario(10).Patched(android.PaperTIMPTrigger)
	if s.Policy != PolicyStability || !s.DualConnectivity || s.Trigger.Name() != "timp" {
		t.Errorf("Patched() = %+v", s)
	}
	if PolicyVanilla.String() != "vanilla" || PolicyStability.String() != "stability-compatible" ||
		PolicyNever5G.String() != "never-5g" || PolicyMode(9).String() != "?" {
		t.Error("bad policy mode strings")
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	perDevice := func(res *Result) map[uint64]int {
		m := map[uint64]int{}
		res.Dataset.Each(func(e *failure.Event) { m[e.DeviceID]++ })
		return m
	}
	s1 := baseScenario(400)
	s1.Workers = 1
	s2 := baseScenario(400)
	s2.Workers = 7
	a := perDevice(runFleet(t, s1))
	b := perDevice(runFleet(t, s2))
	if len(a) != len(b) {
		t.Fatalf("device sets differ: %d vs %d", len(a), len(b))
	}
	for id, n := range a {
		if b[id] != n {
			t.Fatalf("device %d: %d vs %d events across worker counts", id, n, b[id])
		}
	}
}

func TestPrevalenceAndFrequencyNearCatalogue(t *testing.T) {
	res := runFleet(t, baseScenario(4000))
	devs := map[uint64]bool{}
	res.Dataset.Each(func(e *failure.Event) { devs[e.DeviceID] = true })
	prev := float64(len(devs)) / float64(res.Population.Total)
	want := device.WeightedPrevalence()
	// The simulator deliberately under-delivers slightly (transition-only
	// 5G devices may not fail); accept a generous band around 23%.
	if prev < want-0.06 || prev > want+0.04 {
		t.Errorf("prevalence = %.3f, want near %.3f", prev, want)
	}
	freq := float64(res.Dataset.Len()) / float64(res.Population.Total)
	if freq < 20 || freq > 70 {
		t.Errorf("frequency = %.1f, want in the tens (paper: 33)", freq)
	}
}

func TestKindMixNearPaper(t *testing.T) {
	res := runFleet(t, baseScenario(2500))
	counts := map[failure.Kind]int{}
	res.Dataset.Each(func(e *failure.Event) { counts[e.Kind]++ })
	n := float64(res.Dataset.Len())
	setup := float64(counts[failure.DataSetupError]) / n
	stall := float64(counts[failure.DataStall]) / n
	oos := float64(counts[failure.OutOfService]) / n
	legacy := float64(counts[failure.SMSSendFail]+counts[failure.VoiceFailure]) / n
	if math.Abs(setup-0.48) > 0.10 {
		t.Errorf("setup share = %.3f, want ≈0.48", setup)
	}
	if math.Abs(stall-0.42) > 0.10 {
		t.Errorf("stall share = %.3f, want ≈0.42", stall)
	}
	if oos < 0.03 || oos > 0.13 {
		t.Errorf("OOS share = %.3f, want ≈0.09", oos)
	}
	if legacy > 0.02 {
		t.Errorf("legacy share = %.3f, want <1%%", legacy)
	}
}

func TestISPOrdering(t *testing.T) {
	res := runFleet(t, baseScenario(4000))
	withFail := map[simnet.ISPID]map[uint64]bool{}
	for i := simnet.ISPID(0); i < simnet.NumISPs; i++ {
		withFail[i] = map[uint64]bool{}
	}
	res.Dataset.Each(func(e *failure.Event) { withFail[e.ISP][e.DeviceID] = true })
	prev := func(isp simnet.ISPID) float64 {
		return float64(len(withFail[isp])) / float64(res.Population.ByISP[isp])
	}
	a, b, c := prev(simnet.ISPA), prev(simnet.ISPB), prev(simnet.ISPC)
	// Figure 12: B (27.1%) > A (20.1%) > C (14.7%).
	if !(b > a && a > c) {
		t.Errorf("ISP prevalence ordering B>A>C violated: B=%.3f A=%.3f C=%.3f", b, a, c)
	}
}

func TestFiveGAndAndroidVersionOrdering(t *testing.T) {
	res := runFleet(t, baseScenario(4000))
	type agg struct {
		devs   map[uint64]bool
		events int
	}
	groups := map[string]*agg{
		"5g": {devs: map[uint64]bool{}}, "no5g10": {devs: map[uint64]bool{}}, "a9": {devs: map[uint64]bool{}},
	}
	res.Dataset.Each(func(e *failure.Event) {
		var g *agg
		switch {
		case e.FiveGCapable:
			g = groups["5g"]
		case e.AndroidVersion == 10:
			g = groups["no5g10"]
		default:
			g = groups["a9"]
		}
		g.devs[e.DeviceID] = true
		g.events++
	})
	pop := map[string]int{
		"5g":     res.Population.FiveG,
		"no5g10": res.Population.Android10No5G,
		"a9":     res.Population.Android9,
	}
	prev := func(k string) float64 { return float64(len(groups[k].devs)) / float64(pop[k]) }
	freq := func(k string) float64 { return float64(groups[k].events) / float64(pop[k]) }
	// Figures 6/7: 5G phones fail more than non-5G.
	if prev("5g") <= prev("no5g10") {
		t.Errorf("5G prevalence %.3f should exceed non-5G Android 10 %.3f", prev("5g"), prev("no5g10"))
	}
	if freq("5g") <= freq("no5g10") {
		t.Errorf("5G frequency %.1f should exceed non-5G Android 10 %.1f", freq("5g"), freq("no5g10"))
	}
	// Figures 8/9: Android 10 fails more than Android 9 (fair comparison
	// uses non-5G Android 10, footnote 4).
	if prev("no5g10") <= prev("a9") {
		t.Errorf("Android 10 prevalence %.3f should exceed Android 9 %.3f", prev("no5g10"), prev("a9"))
	}
}

func TestStallEventsCarryRecoveryMetadata(t *testing.T) {
	res := runFleet(t, baseScenario(1200))
	var stalls, withAutoFix, opFixed, userReset, auto int
	res.Dataset.Each(func(e *failure.Event) {
		if e.Kind != failure.DataStall {
			return
		}
		stalls++
		if e.AutoFixTime > 0 {
			withAutoFix++
		}
		switch e.ResolvedBy {
		case android.ResolvedOp1, android.ResolvedOp2, android.ResolvedOp3:
			opFixed++
		case android.ResolvedUserReset:
			userReset++
		case android.ResolvedAuto:
			auto++
		}
		if e.Duration < 0 || e.Duration > 100000*time.Second {
			t.Fatalf("implausible stall duration %v", e.Duration)
		}
	})
	if stalls == 0 {
		t.Fatal("no stalls recorded")
	}
	if withAutoFix != stalls {
		t.Errorf("stalls without AutoFixTime: %d of %d", stalls-withAutoFix, stalls)
	}
	// All three resolution paths must occur in a fleet this size.
	if auto == 0 || opFixed == 0 || userReset == 0 {
		t.Errorf("resolution mix auto=%d op=%d user=%d; all should occur", auto, opFixed, userReset)
	}
	// Most stalls self-heal (Figure 10: 60% within 10 s, before the
	// one-minute probation expires).
	if auto < opFixed {
		t.Errorf("auto=%d should dominate op-fixed=%d under the 60 s trigger", auto, opFixed)
	}
}

func TestNoFalsePositiveCausesInDataset(t *testing.T) {
	res := runFleet(t, baseScenario(1500))
	res.Dataset.Each(func(e *failure.Event) {
		if e.Cause.IsFalsePositive() {
			t.Fatalf("false-positive cause %v leaked into dataset", e.Cause)
		}
	})
	st := res.Monitor
	if st.FilteredSetup == 0 || st.FilteredStalls == 0 {
		t.Errorf("filtering never exercised: %+v", st)
	}
	if st.ByFPClass[failure.FPBSOverload] == 0 {
		t.Error("no BS-overload false positives filtered")
	}
	if st.ByFPClass[failure.FPSystemSide] == 0 && st.ByFPClass[failure.FPDNSOnly] == 0 {
		t.Error("no probe-classified stall false positives filtered")
	}
}

func TestTransitionMatrixShape(t *testing.T) {
	res := runFleet(t, baseScenario(3000))
	var expTotal, failTotal int64
	for a := 0; a < numRATIdx; a++ {
		for b := 0; b < telephony.NumSignalLevels; b++ {
			for c := 0; c < numRATIdx; c++ {
				for d := 0; d < telephony.NumSignalLevels; d++ {
					expTotal += res.Transitions.Exposure[a][b][c][d]
					failTotal += res.Transitions.Failures[a][b][c][d]
				}
			}
		}
	}
	if expTotal == 0 || failTotal == 0 {
		t.Fatalf("transition matrix empty: exposures=%d failures=%d", expTotal, failTotal)
	}
	// Failure rate into level-0 destinations must far exceed the rate
	// into level-3+ destinations (Figure 17's dark cells).
	rate := func(toLvl telephony.SignalLevel) float64 {
		var e, f int64
		for a := 0; a < numRATIdx; a++ {
			for b := 0; b < telephony.NumSignalLevels; b++ {
				for c := 0; c < numRATIdx; c++ {
					e += res.Transitions.Exposure[a][b][c][toLvl]
					f += res.Transitions.Failures[a][b][c][toLvl]
				}
			}
		}
		if e == 0 {
			return 0
		}
		return float64(f) / float64(e)
	}
	if rate(telephony.Level0) <= 2*rate(telephony.Level3) {
		t.Errorf("level-0 destination rate %.2f should dwarf level-3 rate %.2f",
			rate(telephony.Level0), rate(telephony.Level3))
	}
}

func TestDwellStatsPopulated(t *testing.T) {
	res := runFleet(t, baseScenario(800))
	var total float64
	for a := 0; a < numRATIdx; a++ {
		for b := 0; b < telephony.NumSignalLevels; b++ {
			total += res.Dwell.Seconds[a][b]
		}
	}
	if total <= 0 {
		t.Fatal("no dwell time accounted")
	}
	if res.Dwell.DevicesOnRAT[telephony.RAT4G] == 0 {
		t.Error("no devices on 4G")
	}
	if res.Dwell.DevicesOnBSRAT[telephony.RAT4G] < res.Dwell.DevicesOnRAT[telephony.RAT4G] {
		t.Error("BS-RAT exposure should be at least camped-RAT exposure")
	}
	// 3G dwell share is small (not preferred when 4G available).
	var dwell3g, dwell4g float64
	for b := 0; b < telephony.NumSignalLevels; b++ {
		dwell3g += res.Dwell.Seconds[telephony.RAT3G][b]
		dwell4g += res.Dwell.Seconds[telephony.RAT4G][b]
	}
	if dwell3g >= dwell4g {
		t.Errorf("3G dwell %v >= 4G dwell %v", dwell3g, dwell4g)
	}
}

func TestEnhancementReducesFiveGFailuresAndStallDurations(t *testing.T) {
	base := Scenario{Seed: 7, NumDevices: 2500, Workers: 4}
	van := runFleet(t, base)
	pat := runFleet(t, base.Patched(android.PaperTIMPTrigger))

	fiveG := func(res *Result) int {
		n := 0
		res.Dataset.Each(func(e *failure.Event) {
			if e.FiveGCapable {
				n++
			}
		})
		return n
	}
	meanStall := func(res *Result) float64 {
		var d time.Duration
		n := 0
		res.Dataset.Each(func(e *failure.Event) {
			if e.Kind == failure.DataStall {
				d += e.Duration
				n++
			}
		})
		return d.Seconds() / float64(n)
	}
	vf, pf := fiveG(van), fiveG(pat)
	drop := 1 - float64(pf)/float64(vf)
	if drop < 0.2 || drop > 0.65 {
		t.Errorf("5G failure reduction = %.1f%%, want ≈40%% (paper 40.3%%)", drop*100)
	}
	vs, ps := meanStall(van), meanStall(pat)
	stallDrop := 1 - ps/vs
	if stallDrop < 0.2 || stallDrop > 0.65 {
		t.Errorf("stall duration reduction = %.1f%%, want ≈38%%", stallDrop*100)
	}
}

func TestUploadPathDeliversSameEvents(t *testing.T) {
	direct := runFleet(t, baseScenario(300))

	ds := trace.NewDataset()
	fc, err := ring.StartFleet(1, ds, ring.FleetOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	s := baseScenario(300)
	s.UploadAddr = fc.Addr(0)
	uploaded := runFleet(t, s)
	_ = uploaded

	if ds.Len() != direct.Dataset.Len() {
		t.Errorf("uploaded %d events, direct run produced %d", ds.Len(), direct.Dataset.Len())
	}
}

func TestUploadPathBadAddressErrors(t *testing.T) {
	s := baseScenario(50)
	s.UploadAddr = "127.0.0.1:1"
	if _, err := Run(s); err == nil {
		t.Error("upload to dead collector should error")
	}
}

func TestOverheadWithinPaperBudget(t *testing.T) {
	res := runFleet(t, baseScenario(1000))
	o := res.Overhead
	if o.Devices != 1000 {
		t.Fatalf("overhead devices = %d", o.Devices)
	}
	// Paper: <2% CPU for typical devices, <8% worst case.
	if o.MeanCPUUtilization() >= 0.02 {
		t.Errorf("mean CPU utilization %.4f, budget <2%%", o.MeanCPUUtilization())
	}
	if o.MaxCPUUtilization >= 0.08 {
		t.Errorf("max CPU utilization %.4f, budget <8%%", o.MaxCPUUtilization)
	}
	// <20 MB storage worst case.
	if o.MaxStorageBytes >= 20<<20 {
		t.Errorf("max storage %d, budget <20 MB", o.MaxStorageBytes)
	}
	// ~20 MB/month network worst case → 160 MB over 8 months.
	if o.MaxNetworkBytes >= 160<<20 {
		t.Errorf("max network %d over the window", o.MaxNetworkBytes)
	}
}

func TestCalibrationSamplers(t *testing.T) {
	cal := DefaultCalibration()
	r := rng.New(12345)
	// Stall auto-fix: ~60% within 10 s (Figure 10), capped at the paper's max.
	n, under10 := 20000, 0
	for i := 0; i < n; i++ {
		d := cal.SampleStallAutoFix(r, 1)
		if d > 92000*time.Second {
			t.Fatalf("auto-fix %v exceeds paper maximum", d)
		}
		if d <= 10*time.Second {
			under10++
		}
	}
	frac := float64(under10) / float64(n)
	if math.Abs(frac-0.60) > 0.06 {
		t.Errorf("P(auto-fix <= 10s) = %.3f, want ≈0.60", frac)
	}
	// Neglect factor stretches durations.
	long := cal.SampleStallAutoFix(r, 12)
	_ = long
	// User reset around 30 s when it happens.
	resets, sum := 0, 0.0
	for i := 0; i < 20000; i++ {
		if d := cal.SampleUserReset(r); d > 0 {
			resets++
			sum += d.Seconds()
		}
	}
	rate := float64(resets) / 20000
	if math.Abs(rate-cal.UserResetProb) > 0.02 {
		t.Errorf("user reset rate %.3f, want %.2f", rate, cal.UserResetProb)
	}
	if mean := sum / float64(resets); math.Abs(mean-30) > 3 {
		t.Errorf("user reset mean %.1f s, want ≈30", mean)
	}
	// Setup attempts within budget.
	for i := 0; i < 1000; i++ {
		a := cal.SampleSetupAttempts(r, 6)
		if a < 1 || a > 6 {
			t.Fatalf("attempts = %d", a)
		}
	}
	// FP stall conditions are always false-positive classes.
	for i := 0; i < 1000; i++ {
		c := cal.SampleFPStallCondition(r)
		if !c.SystemSide() && c.String() != "dns-unavailable" {
			t.Fatalf("FP condition %v is not a false-positive class", c)
		}
	}
}

func TestTransitionMatrixAddAndFailureRate(t *testing.T) {
	var m, other TransitionMatrix
	other.Exposure[3][2][4][0] = 10
	other.Failures[3][2][4][0] = 4
	m.Add(&other)
	m.Add(&other)
	rate, ok := m.FailureRate(telephony.RAT4G, telephony.Level2, telephony.RAT5G, telephony.Level0)
	if !ok || math.Abs(rate-0.4) > 1e-12 {
		t.Errorf("rate = %v, %v", rate, ok)
	}
	if _, ok := m.FailureRate(telephony.RAT2G, telephony.Level5, telephony.RAT3G, telephony.Level5); ok {
		t.Error("unobserved transition should report !ok")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	res := runFleet(t, baseScenario(200))
	path := t.TempDir() // an empty directory is as good as a missing one
	if err := SaveResult(path, res); err != nil {
		t.Fatal(err)
	}
	got, events := readRun(t, path)
	if len(events) != res.Dataset.Len() {
		t.Errorf("events %d vs %d", len(events), res.Dataset.Len())
	}
	if got.Context != res.Context {
		t.Error("run context mismatch")
	}
}

// TestReadRunMissing: a directory that is not there is an error for the
// reader, though LoadContext alone reads it as a store not made yet.
func TestReadRunMissing(t *testing.T) {
	missing := t.TempDir() + "/missing"
	if _, err := ReadRun(missing, func([]failure.Event) {}); err == nil {
		t.Error("missing run directory should error")
	}
	res, err := LoadContext(missing)
	if err != nil || res.Context != (Context{}) || res.Provenance != "no run context (a collector's store)" {
		t.Errorf("LoadContext of a missing directory: %v, context zero %v, provenance %q; want the zero context",
			err, err == nil && res.Context == (Context{}), res.Provenance)
	}
}

func TestDisableFPFilterIncreasesEvents(t *testing.T) {
	clean := runFleet(t, baseScenario(400))
	s := baseScenario(400)
	s.DisableFPFilter = true
	dirty := runFleet(t, s)
	if dirty.Dataset.Len() <= clean.Dataset.Len() {
		t.Errorf("unfiltered run should record more events: %d vs %d",
			dirty.Dataset.Len(), clean.Dataset.Len())
	}
	// The polluted dataset contains false-positive causes.
	polluted := false
	dirty.Dataset.Each(func(e *failure.Event) {
		if e.Cause.IsFalsePositive() {
			polluted = true
		}
	})
	if !polluted {
		t.Error("expected false-positive causes in the unfiltered dataset")
	}
}

// Property: TransitionMatrix.Add is commutative and element-wise additive.
func TestTransitionMatrixAddProperty(t *testing.T) {
	fill := func(seed int64) *TransitionMatrix {
		r := rng.New(seed)
		var m TransitionMatrix
		for i := 0; i < 40; i++ {
			a, b := r.Intn(numRATIdx), r.Intn(int(telephony.NumSignalLevels))
			c, d := r.Intn(numRATIdx), r.Intn(int(telephony.NumSignalLevels))
			m.Exposure[a][b][c][d] += int64(r.Intn(100))
			m.Failures[a][b][c][d] += int64(r.Intn(50))
		}
		return &m
	}
	for seed := int64(0); seed < 20; seed++ {
		x, y := fill(seed), fill(seed+1000)
		var xy, yx TransitionMatrix
		xy.Add(x)
		xy.Add(y)
		yx.Add(y)
		yx.Add(x)
		if xy != yx {
			t.Fatalf("Add not commutative for seed %d", seed)
		}
	}
}

// Property: Population.Add and DwellStats.Add accumulate exactly.
func TestAggregateAddProperty(t *testing.T) {
	r := rng.New(5)
	var total Population
	var parts []Population
	for i := 0; i < 10; i++ {
		var p Population
		p.Total = r.Intn(100)
		p.FiveG = r.Intn(10)
		p.ByModel[1+r.Intn(34)] = r.Intn(50)
		p.ByISP[r.Intn(3)] = r.Intn(50)
		parts = append(parts, p)
		total.Add(&p)
	}
	sum := 0
	for _, p := range parts {
		sum += p.Total
	}
	if total.Total != sum {
		t.Errorf("population total %d, want %d", total.Total, sum)
	}

	var d1, d2, both DwellStats
	d1.Seconds[3][2] = 10.5
	d1.DevicesOnRAT[3] = 4
	d2.Seconds[3][2] = 2.5
	d2.DevicesExposed[3][2] = 7
	both.Add(&d1)
	both.Add(&d2)
	if both.Seconds[3][2] != 13 || both.DevicesOnRAT[3] != 4 || both.DevicesExposed[3][2] != 7 {
		t.Errorf("dwell add wrong: %+v", both)
	}
}

func TestOutageInjection(t *testing.T) {
	base := baseScenario(600)
	quiet := runFleet(t, base)

	// A regional outage is a one-rule campaign: a stall storm on every
	// device camped in the region during the window.
	s := baseScenario(600)
	urban := geo.Urban
	s.Faults = &faultinject.Campaign{Name: "outage", Rules: []faultinject.Rule{{
		Name:      "urban-outage",
		Class:     faultinject.ClassStallStorm,
		Sel:       faultinject.Selector{Region: &urban},
		Start:     60 * 24 * time.Hour,
		Window:    7 * 24 * time.Hour,
		Intensity: 6,
	}}}
	stormy := runFleet(t, s)

	if stormy.Dataset.Len() <= quiet.Dataset.Len() {
		t.Fatalf("outage added no events: %d vs %d", stormy.Dataset.Len(), quiet.Dataset.Len())
	}
	// The injected events cluster inside the outage window.
	inWindow := func(res *Result) int {
		n := 0
		res.Dataset.Each(func(e *failure.Event) {
			if e.Kind == failure.DataStall && e.Start >= 60*24*time.Hour && e.Start < 67*24*time.Hour {
				n++
			}
		})
		return n
	}
	if q, st := inWindow(quiet), inWindow(stormy); st < 2*q {
		t.Errorf("outage window stalls %d vs baseline %d; want a clear spike", st, q)
	}
	// Every injected episode is accounted for and ran to its end (I1).
	rr := stormy.Faults.Rules[0]
	if rr.Injected == 0 || rr.Injected != rr.Recovered {
		t.Errorf("outage rule injected %d, recovered %d; want equal and non-zero", rr.Injected, rr.Recovered)
	}
}

func TestParseScenario(t *testing.T) {
	cfg := `{
		"seed": 9, "devices": 500, "months": 2, "workers": 3,
		"policy": "stability", "trigger": "timp", "dual_connectivity": true,
		"faults": {"name": "outage", "rules": [{"name": "urban-outage", "class": "stall-storm",
			"region": "urban", "start_days": 10, "window_days": 3, "episodes_per_device": 4}]}
	}`
	s, b, err := ParseScenario(strings.NewReader(cfg))
	if err != nil || b != nil {
		t.Fatal(err, b)
	}
	if s.Seed != 9 || s.NumDevices != 500 || s.Workers != 3 {
		t.Errorf("basics: %+v", s)
	}
	if s.Window != 2*30*24*time.Hour {
		t.Errorf("window = %v", s.Window)
	}
	if s.Policy != PolicyStability || !s.DualConnectivity || s.Trigger.Name() != "timp" {
		t.Errorf("policy/trigger: %+v", s)
	}
	if s.Faults == nil || len(s.Faults.Rules) != 1 {
		t.Fatalf("faults: %+v", s.Faults)
	}
	if r := s.Faults.Rules[0]; r.Class != faultinject.ClassStallStorm || r.Sel.Region == nil ||
		*r.Sel.Region != geo.Urban || r.Window != 3*24*time.Hour || r.Intensity != 4 {
		t.Errorf("outage rule: %+v", r)
	}
}

func TestParseScenarioCustomTrigger(t *testing.T) {
	s, _, err := ParseScenario(strings.NewReader(`{"seed":1,"devices":10,"trigger":"12,5.5,20"}`))
	if err != nil {
		t.Fatal(err)
	}
	pt, ok := s.Trigger.(android.ProfileTrigger)
	if !ok {
		t.Fatalf("trigger type %T", s.Trigger)
	}
	if pt[0] != 12*time.Second || pt[1] != 5500*time.Millisecond || pt[2] != 20*time.Second {
		t.Errorf("probations = %v", pt)
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := []string{
		`{"policy":"bogus"}`,
		`{"trigger":"abc"}`,
		`{"trigger":"1,2,-3"}`,
		`{"faults":{"name":"o","rules":[{"name":"r","class":"stall-storm","region":"atlantis","window_days":1,"episodes_per_device":1}]}}`,
		`{"faults":{"name":"o","rules":[{"name":"r","class":"stall-storm","region":"urban","window_days":0,"episodes_per_device":1}]}}`,
		`{"unknown_field":1}`,
		`not json`,
		// Input a run cannot honour: never a silent default or a
		// truncated value.
		`{"devices":10} {"devices":20}`, `{"devices":10} junk`,
		`{"trigger":"1,2,3junk"}`, `{"trigger":"1,2,3,4"}`, `{"trigger":"1,2"}`,
		`{"trigger":"NaN,1,1"}`, `{"trigger":"Inf,1,1"}`, `{"trigger":"1e300,1,1"}`, `{"trigger":"1e-12,1,1"}`,
		`{"devices":-5}`, `{"months":-1}`, `{"months":1e300}`,
		`{"base_stations":-1}`, `{"workers":-2}`,
	}
	for _, c := range cases {
		if _, _, err := ParseScenario(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
	// Zero still means the default.
	s, _, err := ParseScenario(strings.NewReader(`{"devices":0,"months":0,"base_stations":0,"workers":0,"trigger":"1, 2.5, 3"}` + "\n"))
	if n := s.Normalized(); err != nil || n.NumDevices != 2000 || n.Window != EightMonths || n.Workers != 4 ||
		n.Trigger != (android.ProfileTrigger{time.Second, 2500 * time.Millisecond, 3 * time.Second}) {
		t.Errorf("zero counts and a spaced trigger: %+v, %v", n, err)
	}
	// A retired key is an unknown field, named in the error.
	for key, doc := range map[string]string{
		"outages":          `{"outages":[{"region":"urban","start_days":10,"window_days":3,"episodes_per_device":4}]}`,
		"upload_buffer":    `{"upload_addr":"127.0.0.1:9230","upload_buffer":5000}`,
		"upload_spill_dir": `{"upload_addr":"127.0.0.1:9230","upload_spill_dir":"wal"}`,
	} {
		if _, _, err := ParseScenario(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("a scenario with %s: %v, want an error naming the field", key, err)
		}
	}
}

// TestParseScenarioRefusesWhatNeverRuns: a document whose rule can never
// fire, or whose backend the harness cannot run as written, is refused
// at parse time — a rule starting at or past the window (8 months when
// months is 0) would pass I1 on 0 == 0, and network-fault rules with
// nothing uploading would never be drawn. The same rule inside the
// window, and a backend the harness can run, parse.
func TestParseScenarioRefusesWhatNeverRuns(t *testing.T) {
	const radio = `{"name":"r","class":"%s","start_days":%g,"window_days":1%s}`
	rule := func(class string, start float64, extra string) string { return fmt.Sprintf(radio, class, start, extra) }
	doc := func(months float64, rules ...string) string {
		return fmt.Sprintf(`{"months":%g,"faults":{"name":"c","rules":[%s]}}`, months, strings.Join(rules, ","))
	}
	const net = `{"name":"n","class":"ack-loss","probability":0.3}`
	withBackend := func(backend, extra string) string {
		return `{"months":1` + extra + `,"backend":` + backend + `,"faults":{"name":"c","rules":[` + net + `]}}`
	}
	for _, tc := range []struct {
		name, in string
		ok       bool
	}{
		{"rss-degrade inside the window", doc(2, rule("rss-degrade", 59, `,"levels":2`)), true},
		{"rss-degrade at the window's end", doc(2, rule("rss-degrade", 60, `,"levels":2`)), false},
		{"rat-downgrade past the window", doc(1, rule("rat-downgrade", 45, `,"rat":"5G"`)), false},
		{"stall-storm past the 8-month default", doc(0, rule("stall-storm", 240, `,"episodes_per_device":1`)), false},
		{"stall-storm inside the 8-month default", doc(0, rule("stall-storm", 239, `,"episodes_per_device":1`)), true},
		{"network rules with nothing uploading", doc(1, net), false},
		{"network rules uploading to a collector", `{"upload_addr":"127.0.0.1:9230","faults":{"name":"c","rules":[` + net + `]}}`, true},
		{"a backend of one", withBackend(`{"collectors":1}`, ""), true},
		{"a backend with no collector count", withBackend(`{"kill":"restart"}`, ""), false},
		{"a backend of none", withBackend(`{"collectors":0}`, ""), false},
		{"failover across three", withBackend(`{"collectors":3,"kill":"failover"}`, ""), true},
		{"failover with no survivor", withBackend(`{"collectors":1,"kill":"failover"}`, ""), false},
		{"an unknown kill", withBackend(`{"collectors":3,"kill":"reboot"}`, ""), false},
		{"negative collectors", withBackend(`{"collectors":-1}`, ""), false},
		{"an unknown backend key", withBackend(`{"collectors":1,"members":3}`, ""), false},
		{"upload_addr beside a backend", withBackend(`{"collectors":1}`, `,"upload_addr":"127.0.0.1:9230"`), false},
		{"a backend with no campaign", `{"backend":{"collectors":1}}`, false},
	} {
		_, b, err := ParseScenario(strings.NewReader(tc.in))
		if (err == nil) != tc.ok {
			t.Errorf("%s: %s parses with %v", tc.name, tc.in, err)
		}
		if err == nil && strings.Contains(tc.in, `"backend"`) != (b != nil) {
			t.Errorf("%s: backend %+v", tc.name, b)
		}
	}
}

// TestRunRefusesARuleItNeverReaches: the same refusal guards a campaign
// that reaches fleet.Run without a document (an API caller's Scenario).
func TestRunRefusesARuleItNeverReaches(t *testing.T) {
	c, err := faultinject.ParseCampaign(strings.NewReader(
		`{"name":"late","rules":[{"name":"r","class":"rss-degrade","start_days":30,"window_days":1,"levels":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Scenario{Seed: 1, NumDevices: 5, Window: 30 * 24 * time.Hour, Faults: c})
	if err == nil || !strings.Contains(err.Error(), "never fires") {
		t.Errorf("a 30-day run with a rule starting on day 30: %v, want a refusal", err)
	}
}

// TestRunRefusesNetworkRulesWithNothingUploading: the parser's rule also
// guards a campaign that reaches fleet.Run without a document (an API
// caller's Scenario with no upload path), where an ack-loss rule would
// report injected=0. With an upload address it is not refused on those
// grounds.
func TestRunRefusesNetworkRulesWithNothingUploading(t *testing.T) {
	c, err := faultinject.ParseCampaign(strings.NewReader(
		`{"name":"net","rules":[{"name":"lost","class":"ack-loss","probability":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{Seed: 1, NumDevices: 5, Window: 15 * 24 * time.Hour, Faults: c}
	if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "nothing uploads") {
		t.Errorf("an ack-loss campaign with nothing uploading: %v, want a refusal", err)
	}
	s.UploadAddr = "127.0.0.1:1"
	if err := s.checkUploads(); err != nil {
		t.Errorf("with an upload address: %v", err)
	}
}

// FuzzParseScenario: any input is an error or a document a run can
// execute — positive devices, window and workers, a trigger whose every
// probation is positive, every fault rule starting inside the window,
// network-fault rules only with something uploading, and a backend only
// with a campaign, no upload_addr, at least one collector, a known kill
// action and survivors for a failover.
func FuzzParseScenario(f *testing.F) {
	// README's scenario file.
	f.Add(`{"seed":3,"devices":2000,"policy":"stability","trigger":"timp",
  "faults":{"name":"urban-outage","rules":[{"name":"urban-bs-disrepair","class":"stall-storm",
    "region":"urban","start_days":20,"window_days":7,"episodes_per_device":5}]}}`)
	f.Add(`{}`)
	f.Add(`{"seed":1,"devices":10,"months":0.5,"trigger":"12,5.5,20","workers":3}`)
	f.Add(`{"trigger":"NaN,1,1"}`)
	f.Add(`{"months":1,"faults":{"name":"c","rules":[{"name":"r","class":"rss-degrade","start_days":30,"window_days":1,"levels":2}]}}`)
	f.Add(`{"months":2,"backend":{"collectors":3,"kill":"failover"},
  "faults":{"name":"c","rules":[{"name":"n","class":"ack-loss","probability":0.3}]}}`)
	f.Add(`{"backend":{"kill":"failover"},"faults":{"name":"c","rules":[{"name":"n","class":"link-flaky","probability":1}]}}`)
	f.Fuzz(func(t *testing.T, in string) {
		s, b, err := ParseScenario(strings.NewReader(in))
		if err != nil {
			return
		}
		n := s.Normalized()
		if n.NumDevices <= 0 || n.Window <= 0 || n.Workers <= 0 || n.NumBS <= 0 {
			t.Fatalf("%s parses to a scenario no run can execute: %+v", in, n)
		}
		for stage := 0; stage < android.NumRecoveryOps; stage++ {
			if p := n.Trigger.Probation(stage); p <= 0 {
				t.Fatalf("%s parses to probation %v at stage %d", in, p, stage)
			}
		}
		if s.Faults != nil {
			for _, r := range s.Faults.Rules {
				if r.Start >= n.Window {
					t.Fatalf("%s parses to rule %q starting at %v in a %v run", in, r.Name, r.Start, n.Window)
				}
			}
		}
		if b == nil {
			if s.Faults.HasNetworkRules() && s.UploadAddr == "" {
				t.Fatalf("%s parses to network-fault rules with nothing uploading", in)
			}
			return
		}
		if s.Faults == nil || s.UploadAddr != "" || b.Collectors < 1 ||
			(b.Kill != "" && b.Kill != KillRestart && b.Kill != KillFailover) || (b.Kill == KillFailover && b.Collectors < 2) {
			t.Fatalf("%s parses to a backend the harness cannot run: %+v beside %+v", in, b, s)
		}
	})
}

// TestLoadScenarioFile: a document loads from its file, and a missing or
// malformed file is refused with an error that names it.
func TestLoadScenarioFile(t *testing.T) {
	path := t.TempDir() + "/s.json"
	if err := os.WriteFile(path, []byte(`{"seed":4,"devices":50}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 4 || s.NumDevices != 50 {
		t.Errorf("loaded %+v", s)
	}
	if _, _, err := LoadScenario(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
	bad := t.TempDir() + "/bad.json"
	if err := os.WriteFile(bad, []byte(`{"seed":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadScenario(bad); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Errorf("a malformed file: %v, want an error naming it", err)
	}
}
