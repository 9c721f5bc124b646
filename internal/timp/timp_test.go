package timp

import (
	"math"
	"testing"
	"time"

	"repro/internal/anneal"
	"repro/internal/rng"
)

// figure10Samples draws self-recovery durations shaped like Figure 10:
// ~60% fixed within 10 s, >80% within 300 s, with a heavy tail.
func figure10Samples(n int, seed int64) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		if r.Bool(0.85) {
			xs[i] = r.LogNormal(math.Log(5), 1.2)
		} else {
			xs[i] = r.LogNormal(math.Log(600), 1.5)
		}
	}
	return xs
}

func fittedModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(figure10Samples(30000, 42), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil, DefaultOptions()); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
	if _, err := New([]float64{-1, 0, math.NaN(), math.Inf(1)}, DefaultOptions()); err != ErrNoData {
		t.Errorf("err = %v for all-invalid samples", err)
	}
}

func TestRecoveryCDFMonotoneAndCalibrated(t *testing.T) {
	m := fittedModel(t)
	prev := 0.0
	for tt := 0.0; tt <= 90; tt += 0.5 {
		p := m.RecoveryCDF(tt)
		if p < prev-1e-9 {
			t.Fatalf("CDF not monotone at %v: %v < %v", tt, p, prev)
		}
		if p < 0 || p > 1 {
			t.Fatalf("CDF out of range at %v: %v", tt, p)
		}
		prev = p
	}
	// Figure 10 anchor: ~60% of stalls self-fix within 10 s.
	if p := m.RecoveryCDF(10); math.Abs(p-0.60) > 0.05 {
		t.Errorf("P(T<=10s) = %.3f, want ≈0.60", p)
	}
	if m.RecoveryCDF(0) != 0 || m.RecoveryCDF(-5) != 0 {
		t.Error("CDF at non-positive t should be 0")
	}
	// Grid/ECDF boundary continuity.
	if d := math.Abs(m.RecoveryCDF(95.95) - m.RecoveryCDF(96.05)); d > 0.01 {
		t.Errorf("grid boundary discontinuity %v", d)
	}
}

func TestExpectedCostFiniteAndPositive(t *testing.T) {
	m := fittedModel(t)
	for _, pro := range []Probations{{60, 60, 60}, {21, 6, 16}, {0, 0, 0}, {90, 90, 90}} {
		c := m.ExpectedCost(pro)
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			t.Errorf("ExpectedCost(%v) = %v", pro, c)
		}
	}
	// Negative probations clamp to zero rather than corrupting the
	// integral.
	if c := m.ExpectedCost(Probations{-5, -5, -5}); math.Abs(c-m.ExpectedCost(Probations{0, 0, 0})) > 1e-9 {
		t.Errorf("negative probations not clamped: %v", c)
	}
}

func TestInteriorOptimumExists(t *testing.T) {
	m := fittedModel(t)
	def := m.DefaultCost()
	zero := m.ExpectedCost(Probations{0, 0, 0})
	short := m.ExpectedCost(Probations{20, 6, 15})
	// The whole point of the enhancement: much shorter probations beat
	// the one-minute default...
	if short >= def {
		t.Errorf("short probations (%.1f) should beat default (%.1f)", short, def)
	}
	// ...but firing operations immediately is also worse than a judicious
	// wait, because operations disrupt stalls that would have self-healed.
	if short >= zero {
		t.Errorf("short probations (%.1f) should beat zero probations (%.1f)", short, zero)
	}
}

func TestOptimizeFindsShortProbations(t *testing.T) {
	m := fittedModel(t)
	res := m.Optimize(rng.New(7), anneal.Config{Iterations: 15000, Restarts: 3})
	for i, p := range res.Probations {
		if p < 0.5 || p >= 60 {
			t.Errorf("Pro%d = %.1f s, want within (0.5, 60) — each much shorter than one minute", i, p)
		}
	}
	if res.Cost >= res.DefaultCost {
		t.Errorf("optimized cost %.1f >= default %.1f", res.Cost, res.DefaultCost)
	}
	if imp := res.Improvement(); imp <= 0.05 {
		t.Errorf("improvement = %.3f, want a clear gain over the default trigger", imp)
	}
	// The optimum must beat both extremes it was searched against.
	if res.Cost > m.ExpectedCost(Probations{0.5, 0.5, 0.5}) {
		t.Error("optimum worse than near-zero probations")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	m := fittedModel(t)
	a := m.Optimize(rng.New(3), anneal.Config{Iterations: 4000, Restarts: 2})
	b := m.Optimize(rng.New(3), anneal.Config{Iterations: 4000, Restarts: 2})
	if a.Probations != b.Probations || a.Cost != b.Cost {
		t.Errorf("non-deterministic optimize: %+v vs %+v", a, b)
	}
}

func TestProbationsDurations(t *testing.T) {
	p := Probations{21, 6, 16}
	d := p.Durations()
	if d[0] != 21*time.Second || d[1] != 6*time.Second || d[2] != 16*time.Second {
		t.Errorf("Durations = %v", d)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := Options{
		OpSuccess:  [NumStages]float64{-1, 2, 0},
		OpOverhead: [NumStages]float64{-5, 1, 1},
		OpPenalty:  [NumStages]float64{-5, 1, 1},
	}
	m, err := New([]float64{1, 2, 3}, bad)
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultOptions()
	for i := 0; i < NumStages; i++ {
		if m.opts.OpSuccess[i] != def.OpSuccess[i] {
			t.Errorf("OpSuccess[%d] not defaulted: %v", i, m.opts.OpSuccess[i])
		}
	}
	if m.opts.OpOverhead[0] != 0 || m.opts.OpPenalty[0] != 0 {
		t.Error("negative overhead/penalty should clamp to 0")
	}
	if m.opts.TailCap != def.TailCap {
		t.Error("TailCap not defaulted")
	}
}

func TestMeanRecoveryMatchesTailIntegral(t *testing.T) {
	m := fittedModel(t)
	mean := m.tail
	if mean <= 0 || mean > 3600 {
		t.Errorf("tail integral = %v", mean)
	}
	// Heavy tail: mean far above median (~6 s).
	if mean < 30 {
		t.Errorf("tail integral = %.1f, heavy tail should push it well above the median", mean)
	}
}

func TestImprovementEdgeCases(t *testing.T) {
	if (OptimizeResult{Cost: 10, DefaultCost: 0}).Improvement() != 0 {
		t.Error("zero default cost should yield 0 improvement")
	}
	if got := (OptimizeResult{Cost: 27.8, DefaultCost: 38}).Improvement(); math.Abs(got-0.268) > 0.01 {
		t.Errorf("paper numbers improvement = %v, want ≈0.27", got)
	}
}

func TestSensitivity(t *testing.T) {
	samples := figure10Samples(8000, 3)
	rows, err := Sensitivity(samples, DefaultOptions(), 5, anneal.Config{Iterations: 3000, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || rows[0].Name != "baseline" {
		t.Fatalf("rows = %+v", rows)
	}
	byName := map[string]SensitivityRow{}
	for _, r := range rows {
		byName[r.Name] = r
		for i, p := range r.Probations {
			if p < 0.5 || p > 90 {
				t.Errorf("%s Pro%d = %v outside search box", r.Name, i, p)
			}
		}
		if r.Cost <= 0 || r.Cost >= r.DefaultCost*1.5 {
			t.Errorf("%s cost %v vs default %v", r.Name, r.Cost, r.DefaultCost)
		}
	}
	// Doubling disruption penalties must raise the achievable cost.
	if byName["penalties-doubled"].Cost <= byName["penalties-halved"].Cost {
		t.Errorf("penalty scaling not reflected: doubled %.1f <= halved %.1f",
			byName["penalties-doubled"].Cost, byName["penalties-halved"].Cost)
	}
	// A more effective first op lowers the optimal cost.
	if byName["op1-success-0.90"].Cost > byName["op1-success-0.60"].Cost {
		t.Errorf("op success scaling not reflected: 0.90 %.1f > 0.60 %.1f",
			byName["op1-success-0.90"].Cost, byName["op1-success-0.60"].Cost)
	}
}

func TestSensitivityNoSamples(t *testing.T) {
	if _, err := Sensitivity(nil, DefaultOptions(), 1, anneal.Config{Iterations: 100}); err == nil {
		t.Error("empty samples should error")
	}
}
