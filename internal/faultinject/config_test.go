package faultinject

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

const goodCampaignJSON = `{
  "name": "ispb-lte-incident",
  "rules": [
    {"name": "core-storm", "class": "setup-storm", "isp": "ISP-B",
     "start_days": 30, "window_days": 14, "episodes_per_device": 3,
     "causes": ["EMM_ACCESS_BARRED", "INVALID_EMM_STATE"]},
    {"name": "rural-blackout", "class": "bs-blackout", "region": "rural",
     "bs_fraction": 0.4, "start_days": 60, "window_days": 7},
    {"name": "urban-flap", "class": "bs-flap", "region": "urban",
     "bs_fraction": 0.2, "start_days": 10, "window_days": 5,
     "period_hours": 6, "duty_down": 0.3},
    {"name": "weather", "class": "rss-degrade", "region": "remote",
     "start_days": 0, "window_days": 30, "levels": 2},
    {"name": "no5g", "class": "rat-downgrade", "isp": "ISP-A", "rat": "5G",
     "start_days": 90, "window_days": 10},
    {"name": "os-bug", "class": "stall-storm",
     "start_days": 100, "window_days": 14, "episodes_per_device": 1.5}
  ]
}`

func TestParseCampaignGood(t *testing.T) {
	c, err := ParseCampaign(strings.NewReader(goodCampaignJSON))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "ispb-lte-incident" || len(c.Rules) != 6 {
		t.Fatalf("campaign %q with %d rules", c.Name, len(c.Rules))
	}
	storm := c.Rules[0]
	if storm.Class != ClassSetupStorm || storm.Sel.ISP == nil || *storm.Sel.ISP != simnet.ISPB {
		t.Errorf("storm rule mis-parsed: %+v", storm)
	}
	if storm.Start != 30*24*time.Hour || storm.Window != 14*24*time.Hour {
		t.Errorf("storm window mis-parsed: start=%v window=%v", storm.Start, storm.Window)
	}
	if len(storm.Causes) != 2 || storm.Causes[0] != telephony.CauseEMMAccessBarred {
		t.Errorf("storm causes mis-parsed: %v", storm.Causes)
	}
	blackout := c.Rules[1]
	if blackout.Sel.Region == nil || *blackout.Sel.Region != geo.Rural || blackout.Sel.BSFraction != 0.4 {
		t.Errorf("blackout rule mis-parsed: %+v", blackout)
	}
	flap := c.Rules[2]
	if flap.Period != 6*time.Hour || flap.DutyDown != 0.3 {
		t.Errorf("flap rule mis-parsed: %+v", flap)
	}
	rss := c.Rules[3]
	if rss.Intensity != 2 {
		t.Errorf("rss levels mis-parsed: %v", rss.Intensity)
	}
	down := c.Rules[4]
	if down.Sel.RAT != telephony.RAT5G {
		t.Errorf("downgrade RAT mis-parsed: %v", down.Sel.RAT)
	}
}

func TestParseCampaignErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"malformed", `{`, "bad campaign JSON"},
		{"unknown field", `{"name":"c","rules":[],"oops":1}`, "bad campaign JSON"},
		{"trailing data", `{"name":"c","rules":[{"name":"r","class":"stall-storm","window_days":1,"episodes_per_device":1}]} {}`, "trailing data"},
		{"no rules", `{"name":"c","rules":[]}`, "no rules"},
		{"unknown class", `{"name":"c","rules":[{"name":"r","class":"meteor","window_days":1}]}`, "unknown fault class"},
		{"unknown isp", `{"name":"c","rules":[{"name":"r","class":"stall-storm","isp":"ISP-Z","window_days":1,"episodes_per_device":1}]}`, "unknown ISP"},
		{"unknown region", `{"name":"c","rules":[{"name":"r","class":"bs-blackout","region":"ocean","bs_fraction":0.5,"window_days":1}]}`, "unknown region"},
		{"unknown rat", `{"name":"c","rules":[{"name":"r","class":"rat-downgrade","rat":"6G","window_days":1}]}`, "unknown RAT"},
		{"unknown cause", `{"name":"c","rules":[{"name":"r","class":"setup-storm","window_days":1,"episodes_per_device":1,"causes":["NOT_A_CAUSE"]}]}`, "unknown fail cause"},
		{"invalid rule", `{"name":"c","rules":[{"name":"r","class":"bs-blackout","window_days":1}]}`, "bs_fraction"},
	}
	for _, tc := range cases {
		_, err := ParseCampaign(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzParseCampaign pins the parser's contract: arbitrary input must
// either parse into a campaign that validates, or return an error — never
// panic.
func FuzzParseCampaign(f *testing.F) {
	f.Add(goodCampaignJSON)
	f.Add(`{}`)
	f.Add(`{"name":"c","rules":[]}`)
	f.Add(`{"name":"c","rules":[{"name":"r","class":"bs-blackout","bs_fraction":0.5,"window_days":1}]}`)
	f.Add(`{"name":"c","rules":[{"name":"r","class":"rss-degrade","levels":2,"window_days":-1}]}`)
	f.Add(`[1,2,3]`)
	f.Add(`null`)
	f.Add(`{"name":" ","rules":[{"name":"r","class":"stall-storm","window_days":1e308,"episodes_per_device":1e308}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ParseCampaign(strings.NewReader(in))
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("nil campaign with nil error")
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("parsed campaign fails validation: %v", err)
		}
	})
}
