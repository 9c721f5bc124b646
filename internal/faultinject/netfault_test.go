package faultinject

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func netCampaign(p float64) *Campaign {
	return &Campaign{
		Name: "net-test",
		Rules: []Rule{
			{Name: "outage", Class: ClassCollectorOutage, Intensity: p},
			{Name: "ack-loss", Class: ClassAckLoss, Intensity: p},
			{Name: "flaky", Class: ClassLinkFlaky, Intensity: p},
		},
	}
}

func TestNetworkRuleValidation(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		want string // substring of the expected error; "" = valid
	}{
		{"valid", Rule{Name: "x", Class: ClassAckLoss, Intensity: 0.5}, ""},
		{"p one", Rule{Name: "x", Class: ClassCollectorOutage, Intensity: 1}, ""},
		{"p zero", Rule{Name: "x", Class: ClassAckLoss}, "probability"},
		{"p high", Rule{Name: "x", Class: ClassLinkFlaky, Intensity: 1.5}, "probability"},
		{"window", Rule{Name: "x", Class: ClassAckLoss, Intensity: 0.5, Window: time.Hour}, "run-wide"},
		{"start", Rule{Name: "x", Class: ClassAckLoss, Intensity: 0.5, Start: time.Hour}, "run-wide"},
	}
	for _, tc := range cases {
		err := tc.rule.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestNetworkCampaignParse(t *testing.T) {
	c, err := ParseCampaign(strings.NewReader(`{
		"name": "lossy-backend",
		"rules": [
			{"name": "outage", "class": "collector-outage", "probability": 0.25},
			{"name": "lost-acks", "class": "ack-loss", "probability": 0.4},
			{"name": "radio", "class": "bs-blackout", "region": "rural",
			 "bs_fraction": 0.4, "start_days": 10, "window_days": 7}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !c.HasNetworkRules() {
		t.Error("HasNetworkRules = false")
	}
	if c.Rules[0].Intensity != 0.25 || c.Rules[1].Intensity != 0.4 {
		t.Errorf("probabilities not mapped: %v, %v", c.Rules[0].Intensity, c.Rules[1].Intensity)
	}
	if c.Rules[2].Class.IsNetwork() {
		t.Error("bs-blackout misclassified as network")
	}
}

// TestDefaultNetworkCampaign: the upload documents' campaign is the
// blackout campaign's radio stressors, scaled to its own window, plus the
// three transport faults.
func TestDefaultNetworkCampaign(t *testing.T) {
	c, window := documentCampaign(t, "chaos-fleet1.json")
	if !c.HasNetworkRules() {
		t.Error("the upload documents' campaign has no network rules")
	}
	if c.Name != "bundled-network-chaos" {
		t.Errorf("name = %q", c.Name)
	}
	base, baseWindow := documentCampaign(t, "chaos-blackout.json")
	if len(c.Rules) != len(base.Rules)+3 {
		t.Fatalf("rules = %d, want %d", len(c.Rules), len(base.Rules)+3)
	}
	scale := float64(window) / float64(baseWindow)
	for i, r := range base.Rules {
		got := c.Rules[i]
		r.Start = time.Duration(float64(r.Start) * scale)
		r.Window = time.Duration(float64(r.Window) * scale)
		if !reflect.DeepEqual(got, r) {
			t.Errorf("rule %d: %+v, want the blackout rule scaled by %g: %+v", i, got, scale, r)
		}
	}
	for _, r := range c.Rules[len(base.Rules):] {
		if !r.Class.IsNetwork() {
			t.Errorf("rule %q is not a transport fault", r.Name)
		}
	}
}

// TestUploadFaultDeterministicPerDevice compiles the same campaign twice
// and asserts each device sees the identical fault sequence — the
// worker-count-independence contract extended to the upload path.
func TestUploadFaultDeterministicPerDevice(t *testing.T) {
	const seed, attempts = 42, 200
	devices := []uint64{1, 7, 1000}
	run := func() map[uint64][]trace.UploadFaultClass {
		inj, err := Compile(netCampaign(0.3), nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[uint64][]trace.UploadFaultClass)
		// Interleave devices to show cross-device ordering is irrelevant.
		for a := 0; a < attempts; a++ {
			for _, d := range devices {
				out[d] = append(out[d], inj.UploadFault(d, uint64(a+1)))
			}
		}
		return out
	}
	a, b := run(), run()
	sawFault := false
	for _, d := range devices {
		for i := range a[d] {
			if a[d][i] != b[d][i] {
				t.Fatalf("device %d attempt %d: %v vs %v", d, i, a[d][i], b[d][i])
			}
			if a[d][i] != trace.FaultNone {
				sawFault = true
			}
		}
	}
	if !sawFault {
		t.Fatal("no faults fired at p=0.3 over 600 attempts")
	}
}

// TestUploadOutcomeRecovery checks the injected/recovered life cycle: an
// acked attempt concludes every outstanding episode on that device, so a
// run whose uploads all eventually succeed reports Unresolved() == 0.
func TestUploadOutcomeRecovery(t *testing.T) {
	inj, err := Compile(netCampaign(1), nil, 7) // p=1: every attempt faults
	if err != nil {
		t.Fatal(err)
	}
	if !inj.HasNetworkFaults() {
		t.Fatal("HasNetworkFaults = false")
	}
	for a := 0; a < 5; a++ {
		if f := inj.UploadFault(3, uint64(a+1)); f == trace.FaultNone {
			t.Fatalf("attempt %d: no fault at p=1", a)
		}
		inj.UploadOutcome(3, false)
	}
	rep := inj.Report()
	if rep.TotalInjected() != 5 || rep.Unresolved() != 5 {
		t.Fatalf("injected=%d unresolved=%d, want 5/5", rep.TotalInjected(), rep.Unresolved())
	}
	inj.UploadOutcome(3, true) // the eventual ack concludes them all
	if rep = inj.Report(); rep.Unresolved() != 0 {
		t.Fatalf("Unresolved = %d after ack, want 0", rep.Unresolved())
	}
	// An ack for a device with no outstanding episodes is a no-op.
	inj.UploadOutcome(99, true)
	if rep = inj.Report(); rep.Unresolved() != 0 || rep.TotalInjected() != 5 {
		t.Fatalf("stray ack changed accounting: %+v", rep)
	}
}

func TestNilInjectorNetworkFaults(t *testing.T) {
	var inj *Injector
	if inj.HasNetworkFaults() {
		t.Error("nil injector reports network faults")
	}
	if f := inj.UploadFault(1, 1); f != trace.FaultNone {
		t.Errorf("nil injector injected %v", f)
	}
	inj.UploadOutcome(1, true) // must not panic
}
