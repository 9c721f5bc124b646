package faultinject

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

func testStations(n int) []*simnet.BaseStation {
	out := make([]*simnet.BaseStation, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, &simnet.BaseStation{
			ISP:    simnet.ISPID(i % simnet.NumISPs),
			Region: geo.Region(i % geo.NumRegions),
			RATs:   []telephony.RAT{telephony.RAT4G, telephony.RAT3G},
		})
	}
	return out
}

func TestClassRoundTrip(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("volcano"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}
}

func TestRuleValidation(t *testing.T) {
	isp := simnet.ISPA
	ok := Rule{Name: "r", Class: ClassBSBlackout, Sel: Selector{BSFraction: 0.5},
		Start: time.Hour, Window: time.Hour}
	cases := []struct {
		name string
		mut  func(*Rule)
		want string // substring of the expected error; "" means valid
	}{
		{"valid", func(r *Rule) {}, ""},
		{"no name", func(r *Rule) { r.Name = "" }, "needs a name"},
		{"bad class", func(r *Rule) { r.Class = NumClasses }, "invalid class"},
		{"zero window", func(r *Rule) { r.Window = 0 }, "window"},
		{"negative start", func(r *Rule) { r.Start = -time.Hour }, "start"},
		{"fraction too high", func(r *Rule) { r.Sel.BSFraction = 1.5 }, "bs_fraction"},
		{"fraction zero", func(r *Rule) { r.Sel.BSFraction = 0 }, "bs_fraction"},
		{"flap no period", func(r *Rule) { r.Class = ClassBSFlap; r.DutyDown = 0.5 }, "period"},
		{"flap duty one", func(r *Rule) { r.Class = ClassBSFlap; r.Period = time.Hour; r.DutyDown = 1 }, "duty_down"},
		{"rss zero levels", func(r *Rule) { r.Class = ClassRSSDegrade; r.Intensity = 0 }, "levels"},
		{"rss too many levels", func(r *Rule) { r.Class = ClassRSSDegrade; r.Intensity = 9 }, "levels"},
		{"storm no intensity", func(r *Rule) { r.Class = ClassSetupStorm }, "episodes_per_device"},
		{"storm unknown cause", func(r *Rule) {
			r.Class = ClassSetupStorm
			r.Intensity = 1
			r.Causes = []telephony.FailCause{999999}
		}, "unknown fail cause"},
		{"downgrade no rat", func(r *Rule) { r.Class = ClassRATDowngrade }, "needs a rat"},
		{"downgrade ok", func(r *Rule) {
			r.Class = ClassRATDowngrade
			r.Sel = Selector{ISP: &isp, RAT: telephony.RAT5G}
		}, ""},
	}
	for _, tc := range cases {
		r := ok
		tc.mut(&r)
		err := r.Validate()
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

func TestCampaignValidation(t *testing.T) {
	rule := Rule{Name: "r", Class: ClassStallStorm, Start: 0, Window: time.Hour, Intensity: 1}
	if err := (&Campaign{Name: "c", Rules: []Rule{rule}}).Validate(); err != nil {
		t.Errorf("valid campaign rejected: %v", err)
	}
	if err := (&Campaign{Rules: []Rule{rule}}).Validate(); err == nil {
		t.Error("unnamed campaign accepted")
	}
	if err := (&Campaign{Name: "c"}).Validate(); err == nil {
		t.Error("empty campaign accepted")
	}
	if err := (&Campaign{Name: "c", Rules: []Rule{rule, rule}}).Validate(); err == nil {
		t.Error("duplicate rule names accepted")
	}
	var nilCampaign *Campaign
	if err := nilCampaign.Validate(); err != nil {
		t.Errorf("nil campaign should validate (calm run): %v", err)
	}
}

func TestSelectorMatching(t *testing.T) {
	ispA := simnet.ISPA
	urban := geo.Urban
	bs := &simnet.BaseStation{ISP: simnet.ISPA, Region: geo.Urban}
	if !(Selector{}).MatchBS(bs) {
		t.Error("zero selector must match everything")
	}
	if !(Selector{ISP: &ispA, Region: &urban}).MatchBS(bs) {
		t.Error("exact selector must match")
	}
	ispB := simnet.ISPB
	if (Selector{ISP: &ispB}).MatchBS(bs) {
		t.Error("wrong-ISP selector matched")
	}
	if (Selector{}).MatchBS(nil) {
		t.Error("nil BS matched")
	}
	att := simnet.Attachment{BS: bs}
	if !(Selector{Region: &urban}).MatchCamp(simnet.ISPC, att) {
		t.Error("region camp match failed")
	}
	if (Selector{Region: &urban}).MatchCamp(simnet.ISPA, simnet.Attachment{}) {
		t.Error("region selector matched a dead camp")
	}
}

func TestCompileDeterministicAndSeedSensitive(t *testing.T) {
	stations := testStations(300)
	c, _ := documentCampaign(t, "chaos-blackout.json")
	a, err := Compile(c, stations, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(c, stations, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rules() {
		if a.Rules()[i].AffectedBS() != b.Rules()[i].AffectedBS() {
			t.Errorf("rule %d: same seed chose different station counts", i)
		}
	}
	// The blackout must actually darken some stations of the 300.
	if a.Rules()[0].AffectedBS() == 0 {
		t.Error("blackout selected no stations")
	}
	other, err := Compile(c, stations, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Rules() {
		if a.Rules()[i].AffectedBS() != other.Rules()[i].AffectedBS() {
			same = false
		}
	}
	if same {
		t.Log("seed 7 and 8 selected identical station counts for every rule (possible, but suspicious)")
	}
	if inj, err := Compile(nil, stations, 7); err != nil || inj != nil {
		t.Errorf("nil campaign must compile to a nil injector, got %v, %v", inj, err)
	}
}

// EightMonthsWindow mirrors fleet.EightMonths without importing fleet
// (which would create an import cycle in tests).
const EightMonthsWindow = 8 * 30 * 24 * time.Hour

func TestFlapDutyCycle(t *testing.T) {
	urban := geo.Urban
	c := &Campaign{Name: "flap", Rules: []Rule{{
		Name: "f", Class: ClassBSFlap,
		Sel:   Selector{Region: &urban, BSFraction: 1},
		Start: 0, Window: 100 * time.Hour,
		Period: 10 * time.Hour, DutyDown: 0.3,
	}}}
	stations := testStations(50)
	inj, err := Compile(c, stations, 1)
	if err != nil {
		t.Fatal(err)
	}
	var flapped *simnet.BaseStation
	for _, bs := range stations {
		if bs.Region == geo.Urban {
			flapped = bs
			break
		}
	}
	if flapped == nil {
		t.Fatal("no urban station generated")
	}
	down, up := 0, 0
	for h := 0; h < 100; h++ {
		if inj.BSDown(flapped, time.Duration(h)*time.Hour) {
			down++
		} else {
			up++
		}
	}
	// 30% duty cycle over ten 10h periods: expect roughly 30 down hours.
	if down < 20 || down > 40 {
		t.Errorf("flap was down %d/100 hours, want ≈30", down)
	}
	if inj.BSDown(flapped, 101*time.Hour) {
		t.Error("flap active outside its window")
	}
	// Non-matching station never flaps.
	for _, bs := range stations {
		if bs.Region != geo.Urban {
			if inj.BSDown(bs, 2*time.Hour) {
				t.Error("non-urban station flapped")
			}
			break
		}
	}
}

func TestOverlayShiftAndBlock(t *testing.T) {
	ispA := simnet.ISPA
	rural := geo.Rural
	c := &Campaign{Name: "ov", Rules: []Rule{
		{Name: "rss", Class: ClassRSSDegrade, Sel: Selector{Region: &rural},
			Start: time.Hour, Window: time.Hour, Intensity: 2},
		{Name: "down5g", Class: ClassRATDowngrade, Sel: Selector{ISP: &ispA, RAT: telephony.RAT5G},
			Start: time.Hour, Window: time.Hour},
	}}
	inj, err := Compile(c, testStations(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.LevelShift(simnet.ISPB, geo.Rural, 90*time.Minute); got != 2 {
		t.Errorf("LevelShift in window = %d, want 2", got)
	}
	if got := inj.LevelShift(simnet.ISPB, geo.Rural, 3*time.Hour); got != 0 {
		t.Errorf("LevelShift outside window = %d, want 0", got)
	}
	if got := inj.LevelShift(simnet.ISPB, geo.Urban, 90*time.Minute); got != 0 {
		t.Errorf("LevelShift wrong region = %d, want 0", got)
	}
	if !inj.RATBlocked(simnet.ISPA, telephony.RAT5G, 90*time.Minute) {
		t.Error("5G should be blocked for ISP-A inside the window")
	}
	if inj.RATBlocked(simnet.ISPB, telephony.RAT5G, 90*time.Minute) {
		t.Error("5G blocked for the wrong ISP")
	}
	if inj.RATBlocked(simnet.ISPA, telephony.RAT4G, 90*time.Minute) {
		t.Error("4G blocked by a 5G rule")
	}
	var nilInj *Injector
	if nilInj.LevelShift(simnet.ISPA, geo.Urban, 0) != 0 || nilInj.RATBlocked(simnet.ISPA, telephony.RAT5G, 0) {
		t.Error("nil injector must be a no-op overlay")
	}
}

func TestReportAccounting(t *testing.T) {
	c := &Campaign{Name: "acct", Rules: []Rule{
		{Name: "s", Class: ClassStallStorm, Start: 0, Window: time.Hour, Intensity: 1},
	}}
	inj, err := Compile(c, testStations(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	ar := inj.Rules()[0]
	ar.NoteInjected()
	ar.NoteInjected()
	ar.NoteRecovered()
	ar.NoteDropped()
	rep := inj.Report()
	if rep.Campaign != "acct" {
		t.Errorf("campaign name %q", rep.Campaign)
	}
	rr := rep.Rules[0]
	if rr.Injected != 2 || rr.Recovered != 1 || rr.Dropped != 1 {
		t.Errorf("counts %+v", rr)
	}
	if rep.Unresolved() != 1 || rep.TotalInjected() != 2 {
		t.Errorf("Unresolved=%d TotalInjected=%d", rep.Unresolved(), rep.TotalInjected())
	}
	if !strings.Contains(rep.String(), "injected=2") {
		t.Errorf("String() = %q", rep.String())
	}
	var nilRep *Report
	if nilRep.Unresolved() != 0 || nilRep.String() == "" {
		t.Error("nil report helpers must be safe")
	}
}

func TestExpectedKind(t *testing.T) {
	bearing := 0
	for c := Class(0); c < NumClasses; c++ {
		if _, ok := c.ExpectedKind(); ok {
			bearing++
		}
	}
	if bearing != 4 {
		t.Errorf("episode-bearing classes = %d, want 4 (blackout, flap, setup-storm, stall-storm)", bearing)
	}
}

// documentCampaign reads the faults campaign and the window of a
// committed scenario document (the scenario keys fleet parses are skipped:
// fleet imports this package).
func documentCampaign(t *testing.T, name string) (*Campaign, time.Duration) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Months float64         `json:"months"`
		Faults *CampaignConfig `json:"faults"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Faults == nil || doc.Months <= 0 {
		t.Fatalf("%s: %v (months %g, faults %v)", name, err, doc.Months, doc.Faults != nil)
	}
	c, err := doc.Faults.Campaign()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c, time.Duration(doc.Months * float64(30*day))
}

// TestDefaultBlackoutCampaignValid: the committed radio-only campaign is
// valid, and every rule runs its whole window inside the document's run.
func TestDefaultBlackoutCampaignValid(t *testing.T) {
	c, window := documentCampaign(t, "chaos-blackout.json")
	if c.HasNetworkRules() {
		t.Error("the blackout campaign faults the upload path")
	}
	for _, r := range c.Rules {
		if r.End() > window {
			t.Errorf("rule %q extends past the %v window", r.Name, window)
		}
	}
}
