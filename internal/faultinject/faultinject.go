// Package faultinject is the deterministic fault-injection subsystem of
// the fleet simulator: a seeded, virtual-time fault scheduler that
// composes named campaigns of correlated degradation — base-station
// blackouts and flaps, regional RSS degradation windows, ISP-wide
// control-plane error storms, RAT capability downgrades, and device-side
// stall storms — and superimposes them on a generated radio environment.
//
// The calibrated generators of internal/simnet sample smooth marginal
// distributions; they reproduce the paper's landscape figures but never
// stress the detection and recovery paths the way the measured fleet was
// stressed (2.32B failures include bursty, spatially correlated outages:
// neglected rural BSes dying for hours, LTE control-plane storms, 5G
// rollout instability). A Campaign expresses exactly those conditions as
// (target selector, window, intensity) rules; a compiled Injector applies
// them deterministically, so a chaos run is as reproducible as a calm one
// and invariant tests can assert on its aggregates byte-for-byte.
//
// Determinism contract: rule compilation (which BSes a blackout darkens,
// flap phases) draws only from streams split off the scenario seed and
// the rule name, and all per-device fault decisions in the fleet runner
// draw from per-device streams — so results are independent of the worker
// count, exactly like the unfaulted simulator.
package faultinject

import (
	"fmt"
	"time"

	"repro/internal/failure"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// Class is the kind of fault a rule injects.
type Class uint8

// Fault classes. Each maps to a stressor the paper's fleet experienced;
// see DESIGN.md for the section-by-section mapping.
const (
	// ClassBSBlackout takes a fraction of matching base stations fully
	// out of service for the window (long-neglected infrastructure,
	// §3.1's multi-hour outages).
	ClassBSBlackout Class = iota
	// ClassBSFlap cycles matching base stations down and up with a duty
	// cycle inside the window (intermittently failing hardware).
	ClassBSFlap
	// ClassRSSDegrade shifts sampled signal levels down for devices in
	// matching regions (weather/interference windows; Figure 15's
	// level-dependent hazard seen from the other side).
	ClassRSSDegrade
	// ClassSetupStorm injects extra Data_Setup_Error episodes with an
	// elevated cause mix for matching subscribers (ISP control-plane
	// incidents; §3.3's per-ISP discrepancy under stress).
	ClassSetupStorm
	// ClassRATDowngrade blocks one access technology for an ISP during
	// the window (a 5G core outage forcing fallback camps; §3.3 RAT
	// discrepancy).
	ClassRATDowngrade
	// ClassStallStorm injects extra Data_Stall episodes for matching
	// devices (device/OS-side anomalies; the TIMP recovery path's load).
	ClassStallStorm
	// ClassCollectorOutage fails upload attempts before a connection is
	// made (the backend is unreachable), forcing device-side buffering,
	// backoff, and spill — the paper's WiFi-gated store-and-forward path
	// under a dead backend.
	ClassCollectorOutage
	// ClassAckLoss delivers the batch and severs the connection before
	// the acknowledgement — the duplicate-risk fault the seq/dedup
	// machinery exists for.
	ClassAckLoss
	// ClassLinkFlaky makes the upload link lossy and slow: attempts are
	// cut mid-frame or delayed, exercising truncated-batch handling and
	// retry pacing.
	ClassLinkFlaky

	NumClasses = 9
)

func (c Class) String() string {
	switch c {
	case ClassBSBlackout:
		return "bs-blackout"
	case ClassBSFlap:
		return "bs-flap"
	case ClassRSSDegrade:
		return "rss-degrade"
	case ClassSetupStorm:
		return "setup-storm"
	case ClassRATDowngrade:
		return "rat-downgrade"
	case ClassStallStorm:
		return "stall-storm"
	case ClassCollectorOutage:
		return "collector-outage"
	case ClassAckLoss:
		return "ack-loss"
	case ClassLinkFlaky:
		return "link-flaky"
	default:
		return "unknown"
	}
}

// IsNetwork reports whether the class faults the device→collector upload
// path rather than the radio environment. Network rules fire per upload
// attempt with probability Intensity and apply for the whole run (upload
// attempts happen outside virtual time, so windows do not apply).
func (c Class) IsNetwork() bool {
	switch c {
	case ClassCollectorOutage, ClassAckLoss, ClassLinkFlaky:
		return true
	}
	return false
}

// ParseClass maps a class name to its Class.
func ParseClass(s string) (Class, error) {
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown fault class %q", s)
}

// Selector narrows which part of the fleet or deployment a rule targets.
// Zero-valued fields match everything.
type Selector struct {
	// ISP restricts the rule to one carrier (nil = all three).
	ISP *simnet.ISPID
	// Region restricts the rule to base stations / camps in one region
	// type (nil = everywhere).
	Region *geo.Region
	// RAT names the blocked technology for ClassRATDowngrade rules.
	RAT telephony.RAT
	// BSFraction is the fraction of selector-matching base stations a
	// blackout or flap rule darkens (blackout/flap only; (0, 1]).
	BSFraction float64
}

// MatchBS reports whether a base station falls under the selector.
func (sel Selector) MatchBS(bs *simnet.BaseStation) bool {
	if bs == nil {
		return false
	}
	if sel.ISP != nil && bs.ISP != *sel.ISP {
		return false
	}
	if sel.Region != nil && bs.Region != *sel.Region {
		return false
	}
	return true
}

// MatchCamp reports whether a device of the given ISP camped on att falls
// under the selector (used by storm rules).
func (sel Selector) MatchCamp(isp simnet.ISPID, att simnet.Attachment) bool {
	if sel.ISP != nil && isp != *sel.ISP {
		return false
	}
	if sel.Region != nil {
		if att.BS == nil || att.BS.Region != *sel.Region {
			return false
		}
	}
	return true
}

// Rule is one fault: a class, a target selector, a virtual-time window,
// and an intensity whose meaning depends on the class.
type Rule struct {
	// Name labels the rule in reports and metrics; unique per campaign.
	Name string
	// Class selects the fault mechanism.
	Class Class
	// Sel narrows the target.
	Sel Selector
	// Start and Window bound the fault in virtual time since the run
	// began.
	Start  time.Duration
	Window time.Duration
	// Intensity is class-dependent: expected extra episodes per exposed
	// device over the full window (setup/stall storms) or the number of
	// signal levels to subtract (rss-degrade).
	Intensity float64
	// Period and DutyDown shape ClassBSFlap: each affected BS is down
	// for the first DutyDown fraction of every Period, phase-shifted
	// per BS.
	Period   time.Duration
	DutyDown float64
	// Causes overrides the Data_Setup_Error cause mix for setup storms
	// (empty: the environment's calibrated mix).
	Causes []telephony.FailCause
}

// End returns the virtual time the rule's window closes.
func (r *Rule) End() time.Duration { return r.Start + r.Window }

// ActiveAt reports whether the rule's window covers virtual time at.
func (r *Rule) ActiveAt(at time.Duration) bool {
	return at >= r.Start && at < r.End()
}

// Validate checks one rule.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("faultinject: rule needs a name")
	}
	if r.Class >= NumClasses {
		return fmt.Errorf("faultinject: rule %q: invalid class %d", r.Name, r.Class)
	}
	if r.Class.IsNetwork() {
		// Network faults fire per upload attempt, outside virtual time:
		// a window would be silently inert, so reject it outright.
		if r.Start != 0 || r.Window != 0 {
			return fmt.Errorf("faultinject: rule %q: network faults apply run-wide; remove start/window", r.Name)
		}
		if r.Intensity <= 0 || r.Intensity > 1 {
			return fmt.Errorf("faultinject: rule %q: network fault probability must be in (0, 1]", r.Name)
		}
		return nil
	}
	if r.Start < 0 || r.Window <= 0 {
		return fmt.Errorf("faultinject: rule %q: window must be positive and start non-negative", r.Name)
	}
	switch r.Class {
	case ClassBSBlackout, ClassBSFlap:
		if r.Sel.BSFraction <= 0 || r.Sel.BSFraction > 1 {
			return fmt.Errorf("faultinject: rule %q: bs_fraction must be in (0, 1]", r.Name)
		}
		if r.Class == ClassBSFlap {
			if r.Period <= 0 || r.DutyDown <= 0 || r.DutyDown >= 1 {
				return fmt.Errorf("faultinject: rule %q: flap needs period > 0 and duty_down in (0, 1)", r.Name)
			}
		}
	case ClassRSSDegrade:
		if r.Intensity < 1 || r.Intensity > float64(telephony.NumSignalLevels-1) {
			return fmt.Errorf("faultinject: rule %q: rss-degrade levels must be in [1, %d]", r.Name, telephony.NumSignalLevels-1)
		}
	case ClassSetupStorm, ClassStallStorm:
		if r.Intensity <= 0 {
			return fmt.Errorf("faultinject: rule %q: storm needs episodes_per_device > 0", r.Name)
		}
		for _, c := range r.Causes {
			if telephony.Info(c).Name == "UNKNOWN" {
				return fmt.Errorf("faultinject: rule %q: unknown fail cause %d", r.Name, int(c))
			}
		}
	case ClassRATDowngrade:
		if r.Sel.RAT == telephony.RATUnknown {
			return fmt.Errorf("faultinject: rule %q: rat-downgrade needs a rat", r.Name)
		}
	}
	return nil
}

// Campaign is a named set of fault rules applied together.
type Campaign struct {
	Name  string
	Rules []Rule
}

// Validate checks the whole campaign.
func (c *Campaign) Validate() error {
	if c == nil {
		return nil
	}
	if c.Name == "" {
		return fmt.Errorf("faultinject: campaign needs a name")
	}
	if len(c.Rules) == 0 {
		return fmt.Errorf("faultinject: campaign %q has no rules", c.Name)
	}
	seen := make(map[string]bool, len(c.Rules))
	for i := range c.Rules {
		r := &c.Rules[i]
		if err := r.Validate(); err != nil {
			return err
		}
		if seen[r.Name] {
			return fmt.Errorf("faultinject: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
	return nil
}

// CheckWindow refuses a rule that starts at or past the end of a run's
// window: it would never fire, and its I1 accounting would pass on 0 == 0.
func (c *Campaign) CheckWindow(window time.Duration) error {
	if c == nil {
		return nil
	}
	for i := range c.Rules {
		if r := &c.Rules[i]; r.Start >= window {
			return fmt.Errorf("faultinject: rule %q starts at day %g, at or past the end of the %g-day run: it never fires",
				r.Name, r.Start.Hours()/24, window.Hours()/24)
		}
	}
	return nil
}

// HasNetworkRules reports whether any rule faults the upload path; such
// campaigns need the fleet runner to wire the injector into uploaders.
func (c *Campaign) HasNetworkRules() bool {
	if c == nil {
		return false
	}
	for i := range c.Rules {
		if c.Rules[i].Class.IsNetwork() {
			return true
		}
	}
	return false
}

// ExpectedKind returns the failure kind whose absolute count a rule class
// pushes up, and whether the class shifts the kind mix at all. The chaos
// invariant checker compares a faulted run's counts against a calm
// baseline in this direction.
func (c Class) ExpectedKind() (kind failure.Kind, ok bool) {
	switch c {
	case ClassBSBlackout, ClassBSFlap:
		return failure.OutOfService, true
	case ClassSetupStorm:
		return failure.DataSetupError, true
	case ClassStallStorm:
		return failure.DataStall, true
	default:
		return 0, false
	}
}
