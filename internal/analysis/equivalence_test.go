package analysis

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/stats"
	"repro/internal/telephony"
)

// The legacy multi-pass oracle must satisfy the same extraction surface as
// the fused engine pass.
var _ source = legacySource{}

// TestEngineMatchesLegacy asserts that the single-pass visitor engine
// produces results identical to the sequential multi-pass implementation on
// the fixed-seed scenario dataset — figure by figure, via DeepEqual, except
// that an ECDF is compared by what it answers (sameAnswers).
func TestEngineMatchesLegacy(t *testing.T) {
	van, _ := setup(t)
	pass := NewPass(van)
	legacy := legacySource{van}

	check := func(name string, got, want any) {
		t.Helper()
		if !sameAnswers(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("%s: engine pass diverges from legacy scan\n got: %+v\nwant: %+v", name, got, want)
		}
	}

	check("Table1", pass.Table1(catalogueCE), legacy.Table1(catalogueCE))
	check("Table2", pass.Table2(10), legacy.Table2(10))
	// The fleet emits registry codes only; the synthetic input adds one the
	// registry does not define, which a decoded frame may also carry.
	synth := benchInput(1 << 12)
	check("Table2/undefined-cause", NewPass(synth).Table2(0), legacySource{synth}.Table2(0))
	check("Figure3", pass.Figure3(), legacy.Figure3())
	check("Figure4", pass.Figure4(), legacy.Figure4())
	{
		gf, gn := pass.By5G()
		wf, wn := legacy.By5G()
		check("By5G/5g", gf, wf)
		check("By5G/non5g", gn, wn)
	}
	{
		g9, g10 := pass.ByAndroidVersion()
		w9, w10 := legacy.ByAndroidVersion()
		check("ByAndroidVersion/9", g9, w9)
		check("ByAndroidVersion/10", g10, w10)
	}
	check("ByISP", pass.ByISP(), legacy.ByISP())
	check("Figure10", pass.Figure10(), legacy.Figure10())
	check("Figure11", pass.Figure11(100), legacy.Figure11(100))
	check("Figure14", pass.Figure14(), legacy.Figure14())
	check("Figure15", pass.Figure15(), legacy.Figure15())
	check("Figure16/4G", pass.Figure16(telephony.RAT4G), legacy.Figure16(telephony.RAT4G))
	check("Figure16/5G", pass.Figure16(telephony.RAT5G), legacy.Figure16(telephony.RAT5G))

	// The raw samples are compared as sorted multisets: sample order is not
	// part of the visitor contract (the engine settles each sample in place,
	// the oracle keeps arrival order), and every consumer — the ECDFs above,
	// WinsorizedMean and KolmogorovSmirnov in the enhancement report below —
	// reads a sample as a multiset. Everything else here stays DeepEqual.
	ascending := func(xs []float64) []float64 {
		xs = append([]float64(nil), xs...)
		sort.Float64s(xs)
		return xs
	}
	for _, kind := range []failure.Kind{failure.DataSetupError, failure.DataStall, failure.OutOfService} {
		check("kindDurations/"+kind.String(), pass.kindDurations(kind), ascending(legacy.kindDurations(kind)))
	}
	check("fiveGKindStats", pass.fiveGKindStats(), legacy.fiveGKindStats())

	check("DurationByKind", pass.DurationByKind(), legacyDurationByKind(van))
	check("ByRegion", pass.ByRegion(), legacyByRegion(van))
	check("EstimateOpSuccess", pass.EstimateOpSuccess(), legacyEstimateOpSuccess(van))
	check("TimeSeries", timeSeries(van, 7*24*time.Hour), legacyTimeSeries(van, 7*24*time.Hour))
	check("TimeSeries/day", timeSeries(van, 24*time.Hour), legacyTimeSeries(van, 24*time.Hour))
}

// sameAnswers is reflect.DeepEqual, except that two ECDFs are equal when
// they answer alike (answersOf), however each stores its sample: the
// engine's Figure 4 reads the per-kind runs in place, the oracle's holds
// one sorted copy.
func sameAnswers(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == reflect.TypeFor[*stats.ECDF]() && !a.IsNil() && !b.IsNil() {
		return reflect.DeepEqual(answersOf(a.Interface().(*stats.ECDF)), answersOf(b.Interface().(*stats.ECDF)))
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		return a.IsNil() == b.IsNil() && (a.IsNil() || sameAnswers(a.Elem(), b.Elem()))
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameAnswers(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameAnswers(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !sameAnswers(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// ecdfAnswers is what an ECDF answers: its size, its points (all, and at
// a few sizes), extremes, mean, and three functions on fixed grids.
type ecdfAnswers struct {
	N                     int
	Points                [][][2]float64
	Min, Max, Mean        float64
	Quantiles, WMeans, Ps []float64
}

func answersOf(e *stats.ECDF) ecdfAnswers {
	a := ecdfAnswers{N: e.N(), Min: e.Min(), Max: e.Max(), Mean: e.Mean()}
	for _, n := range []int{1, 2, 12, 64, e.N()} {
		a.Points = append(a.Points, e.Points(n))
	}
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		a.Quantiles = append(a.Quantiles, e.Quantile(q))
		a.WMeans = append(a.WMeans, e.WinsorizedMean(q))
	}
	for _, x := range []float64{0, 1, 10, 29.5, 30, 60, 300, 3600, 1e6} {
		a.Ps = append(a.Ps, e.P(x))
	}
	return a
}

// TestReportMatchesLegacy renders the full markdown report through both
// paths and requires byte equality — the strongest end-to-end check that
// the engine rewrite changed nothing observable.
func TestReportMatchesLegacy(t *testing.T) {
	van, pat := setup(t)
	cfg := ReportConfig{
		Devices:   van.Population.Total,
		Months:    4,
		Seed:      17,
		Catalogue: catalogueCE,
	}
	const elapsed = 42 * time.Second

	engine := buildReportFrom(NewPass(van), NewPass(pat), cfg).Markdown(elapsed)
	legacy := buildReportFrom(legacySource{van}, legacySource{pat}, cfg).Markdown(elapsed)
	if engine != legacy {
		t.Fatalf("report markdown diverges between engine and legacy paths\nengine %d bytes, legacy %d bytes", len(engine), len(legacy))
	}

	engineClaims := RenderClaims(checkClaimsFrom(NewPass(van)))
	legacyClaims := RenderClaims(checkClaimsFrom(legacySource{van}))
	if engineClaims != legacyClaims {
		t.Fatalf("claims diverge:\nengine:\n%s\nlegacy:\n%s", engineClaims, legacyClaims)
	}

	engineGuide := guidelinesFrom(NewPass(van))
	legacyGuide := guidelinesFrom(legacySource{van})
	if !reflect.DeepEqual(engineGuide, legacyGuide) {
		t.Fatalf("guidelines diverge:\nengine: %+v\nlegacy: %+v", engineGuide, legacyGuide)
	}

	engineEnh := compareEnhancementFrom(NewPass(van), NewPass(pat))
	legacyEnh := compareEnhancementFrom(legacySource{van}, legacySource{pat})
	if !reflect.DeepEqual(engineEnh, legacyEnh) {
		t.Fatalf("enhancement comparison diverges:\nengine: %+v\nlegacy: %+v", engineEnh, legacyEnh)
	}
}
