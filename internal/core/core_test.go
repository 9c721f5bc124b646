package core

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/android"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func TestFullPipeline(t *testing.T) {
	scenario := fleet.Scenario{Seed: 3, NumDevices: 1500, Workers: 4}
	m, opt, enh, err := FullPipeline(scenario)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fleet.Dataset.Len() == 0 {
		t.Fatal("measurement produced no events")
	}
	if opt.Samples == 0 {
		t.Fatal("no stall samples for the TIMP fit")
	}
	// The optimized probations are each much shorter than one minute.
	for i, p := range opt.Trigger {
		if p <= 0 || p >= time.Minute {
			t.Errorf("Pro%d = %v, want in (0, 60s)", i, p)
		}
	}
	if opt.Result.Cost >= opt.Result.DefaultCost {
		t.Errorf("optimized cost %.1f >= default %.1f", opt.Result.Cost, opt.Result.DefaultCost)
	}
	// The enhancements must reduce 5G failures and stall durations.
	if enh.Report.FiveGFrequencyChange >= -0.1 {
		t.Errorf("5G frequency change = %+.2f, want a clear reduction", enh.Report.FiveGFrequencyChange)
	}
	if enh.Report.StallDurationChange >= -0.1 {
		t.Errorf("stall duration change = %+.2f, want a clear reduction", enh.Report.StallDurationChange)
	}
	if enh.Patched.Scenario.Policy != fleet.PolicyStability {
		t.Error("patched run did not use the stability policy")
	}
}

// TestPipelineGolden pins what cellrepro prints for one fixed run — the
// report's bytes and the TIMP fit behind it — and what it costs: one sweep
// per dataset, the vanilla run's and the patched run's. Workers is part of
// the recorded run (the dwell sums behind Figures 14-16 are added up per
// worker).
func TestPipelineGolden(t *testing.T) {
	passes := func() float64 {
		v, _ := metrics.Default().Value("analysis_passes_total")
		return v
	}
	before := passes()
	m, opt, enh, err := FullPipeline(fleet.Scenario{Seed: 3, NumDevices: 1500, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	md := BuildReport(m, opt, enh).Markdown(42 * time.Second)
	if got := passes() - before; got != 2 {
		t.Errorf("the pipeline and its report ran %v analysis passes, want 2", got)
	}
	const wantSum = "6427c5e7c1c188ffd5e6b3c21c0c55e15ff78248c0cd2d44ffefd78a5f481f02"
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(md))); sum != wantSum {
		t.Errorf("report markdown: SHA-256 %s, want %s", sum, wantSum)
	}
	if want := (android.ProfileTrigger{12717260629, 13439929485, 17246163898}); opt.Trigger != want {
		t.Errorf("trigger = %v, want %v", opt.Trigger, want)
	}
	if want := 0x1.15add66910a58p+04; opt.Result.Cost != want {
		t.Errorf("optimized cost = %x, want %x", opt.Result.Cost, want)
	}
	if opt.Samples != 20362 {
		t.Errorf("self-recovery samples = %d, want 20362", opt.Samples)
	}
}

func TestCatalogue(t *testing.T) {
	cat := Catalogue()
	if len(cat) != 34 {
		t.Fatalf("catalogue = %d entries", len(cat))
	}
	fiveG := 0
	for _, m := range cat {
		if m.FiveG {
			fiveG++
		}
	}
	if fiveG != 4 {
		t.Errorf("5G models = %d, want 4", fiveG)
	}
}

func TestOptimizeRecoveryNoStalls(t *testing.T) {
	res := &fleet.Result{Dataset: trace.NewDataset()}
	m := &MeasurementResult{Fleet: res, Pass: analysis.NewPass(analysis.FromResult(res))}
	if _, err := OptimizeRecovery(m, 1); err == nil {
		t.Error("empty dataset should fail the TIMP fit")
	}
}

func TestMeasureInvalidScenario(t *testing.T) {
	s := Study{Scenario: fleet.Scenario{NumDevices: 10, UploadAddr: "127.0.0.1:1"}}
	if _, err := s.Measure(); err == nil {
		t.Error("unreachable collector should surface an error")
	}
}
