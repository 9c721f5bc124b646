package cellrel

import (
	"strings"
	"testing"
)

func TestPublicAPIPipeline(t *testing.T) {
	m, opt, enh, err := FullPipeline(Scenario{Seed: 9, NumDevices: 800, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Fleet.Monitor.Recorded == 0 {
		t.Fatal("no events")
	}
	if opt.Result.Improvement() <= 0 {
		t.Errorf("TIMP improvement = %v", opt.Result.Improvement())
	}
	out := RenderEnhancement(enh.Report)
	if !strings.Contains(out, "5G frequency") {
		t.Errorf("render: %q", out)
	}
}

func TestRunAndAnalyze(t *testing.T) {
	res, err := Run(Scenario{Seed: 4, NumDevices: 300, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := FromResult(res)
	if in.Dataset.Len() != res.Dataset.Len() {
		t.Error("input/dataset mismatch")
	}
	if len(Catalogue()) != 34 {
		t.Error("catalogue size")
	}
}

func TestExportedConstants(t *testing.T) {
	if PaperTIMPTrigger.Name() != "timp" || DefaultFixedTrigger.Name() != "fixed" {
		t.Error("trigger exports broken")
	}
	if PolicyVanilla.String() != "vanilla" || PolicyStability.String() != "stability-compatible" {
		t.Error("policy exports broken")
	}
	if EightMonths <= 0 {
		t.Error("window export broken")
	}
}

func TestGuidelinesFacade(t *testing.T) {
	res, err := Run(Scenario{Seed: 6, NumDevices: 1200, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pass := NewPass(FromResult(res))
	gs := pass.Guidelines()
	if len(gs) == 0 {
		t.Fatal("no guidelines from a standard fleet")
	}
	if !strings.Contains(RenderGuidelines(gs), "advice") {
		t.Error("render broken")
	}
	if !strings.Contains(RenderClaims(pass.Claims()), "claims reproduced") {
		t.Error("claims render broken")
	}
}
