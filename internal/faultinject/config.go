package faultinject

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// CampaignConfig is the on-disk JSON form of a Campaign, in human units
// (days, hours, registry names) rather than internal ones. Example:
//
//	{
//	  "name": "ispb-lte-incident",
//	  "rules": [
//	    {"name": "core-storm", "class": "setup-storm", "isp": "ISP-B",
//	     "start_days": 30, "window_days": 14, "episodes_per_device": 3,
//	     "causes": ["EMM_ACCESS_BARRED", "INVALID_EMM_STATE"]},
//	    {"name": "rural-blackout", "class": "bs-blackout", "region": "rural",
//	     "bs_fraction": 0.4, "start_days": 60, "window_days": 7}
//	  ]
//	}
type CampaignConfig struct {
	Name  string       `json:"name"`
	Rules []RuleConfig `json:"rules"`
}

// RuleConfig is the JSON form of one Rule.
type RuleConfig struct {
	Name  string `json:"name"`
	Class string `json:"class"`

	// Selector, all optional: ISP by display name ("ISP-A"), region by
	// name ("urban", ... "transport-hub"), RAT by name ("2G".."5G").
	ISP        string  `json:"isp,omitempty"`
	Region     string  `json:"region,omitempty"`
	RAT        string  `json:"rat,omitempty"`
	BSFraction float64 `json:"bs_fraction,omitempty"`

	StartDays  float64 `json:"start_days"`
	WindowDays float64 `json:"window_days"`

	// Class-specific intensity knobs; exactly one family applies.
	Levels            int     `json:"levels,omitempty"`              // rss-degrade
	EpisodesPerDevice float64 `json:"episodes_per_device,omitempty"` // storms
	Probability       float64 `json:"probability,omitempty"`         // network faults, per upload attempt

	PeriodHours float64 `json:"period_hours,omitempty"` // bs-flap
	DutyDown    float64 `json:"duty_down,omitempty"`    // bs-flap

	Causes []string `json:"causes,omitempty"` // setup-storm cause names
}

// ParseCampaign decodes and validates a JSON campaign. Unknown fields are
// rejected so typos in campaign files surface as errors instead of
// silently inert rules. A scenario document's "faults" key goes through
// CampaignConfig.Campaign instead; this stays as the tests' and the fuzz
// target's way to write a campaign inline.
func ParseCampaign(r io.Reader) (*Campaign, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg CampaignConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("faultinject: bad campaign JSON: %w", err)
	}
	// A second document in the same stream is a malformed file, not a
	// second campaign.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("faultinject: trailing data after campaign document")
	}
	return cfg.Campaign()
}

// Campaign converts the config to a validated Campaign.
func (cfg *CampaignConfig) Campaign() (*Campaign, error) {
	c := &Campaign{Name: cfg.Name}
	for i := range cfg.Rules {
		r, err := cfg.Rules[i].rule()
		if err != nil {
			return nil, err
		}
		c.Rules = append(c.Rules, r)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

const day = 24 * time.Hour

func (rc *RuleConfig) rule() (Rule, error) {
	class, err := ParseClass(rc.Class)
	if err != nil {
		return Rule{}, fmt.Errorf("faultinject: rule %q: %w", rc.Name, err)
	}
	r := Rule{
		Name:   rc.Name,
		Class:  class,
		Start:  time.Duration(rc.StartDays * float64(day)),
		Window: time.Duration(rc.WindowDays * float64(day)),
		Period: time.Duration(rc.PeriodHours * float64(time.Hour)),
		Sel:    Selector{BSFraction: rc.BSFraction},
	}
	r.DutyDown = rc.DutyDown
	if rc.ISP != "" {
		isp, err := parseISP(rc.ISP)
		if err != nil {
			return Rule{}, fmt.Errorf("faultinject: rule %q: %w", rc.Name, err)
		}
		r.Sel.ISP = &isp
	}
	if rc.Region != "" {
		reg, err := parseRegion(rc.Region)
		if err != nil {
			return Rule{}, fmt.Errorf("faultinject: rule %q: %w", rc.Name, err)
		}
		r.Sel.Region = &reg
	}
	if rc.RAT != "" {
		rat, err := parseRAT(rc.RAT)
		if err != nil {
			return Rule{}, fmt.Errorf("faultinject: rule %q: %w", rc.Name, err)
		}
		r.Sel.RAT = rat
	}
	switch class {
	case ClassRSSDegrade:
		r.Intensity = float64(rc.Levels)
	case ClassSetupStorm, ClassStallStorm:
		r.Intensity = rc.EpisodesPerDevice
	case ClassCollectorOutage, ClassAckLoss, ClassLinkFlaky:
		r.Intensity = rc.Probability
	}
	for _, name := range rc.Causes {
		cause, err := parseCause(name)
		if err != nil {
			return Rule{}, fmt.Errorf("faultinject: rule %q: %w", rc.Name, err)
		}
		r.Causes = append(r.Causes, cause)
	}
	return r, nil
}

func parseISP(s string) (simnet.ISPID, error) {
	for id := simnet.ISPID(0); id < simnet.NumISPs; id++ {
		if id.String() == s {
			return id, nil
		}
	}
	return 0, fmt.Errorf("unknown ISP %q", s)
}

func parseRegion(s string) (geo.Region, error) {
	for reg := geo.Region(0); reg < geo.NumRegions; reg++ {
		if reg.String() == s {
			return reg, nil
		}
	}
	return 0, fmt.Errorf("unknown region %q", s)
}

func parseRAT(s string) (telephony.RAT, error) {
	for _, rat := range []telephony.RAT{telephony.RAT2G, telephony.RAT3G, telephony.RAT4G, telephony.RAT5G} {
		if rat.String() == s {
			return rat, nil
		}
	}
	return telephony.RATUnknown, fmt.Errorf("unknown RAT %q", s)
}

func parseCause(s string) (telephony.FailCause, error) {
	for _, info := range telephony.AllCauses() {
		if info.Name == s {
			return info.Cause, nil
		}
	}
	return telephony.CauseNone, fmt.Errorf("unknown fail cause %q", s)
}
