package faultinject

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// ActiveRule is one compiled campaign rule: the rule itself, the concrete
// base stations it darkens (for blackouts and flaps), and its episode
// life-cycle counters. Counters are atomics because every worker shard
// touches them; they feed telemetry and the post-run Report, never the
// simulation, so they cannot perturb determinism.
type ActiveRule struct {
	Rule

	// down holds the selected blackout/flap targets; phase the per-BS
	// flap phase offset. Both are written only during Compile and read-
	// only afterwards, so shards may consult them without locks.
	down  map[*simnet.BaseStation]struct{}
	phase map[*simnet.BaseStation]time.Duration

	causePick *rng.Categorical

	injected  atomic.Int64
	recovered atomic.Int64
	dropped   atomic.Int64
}

// AffectedBS returns how many base stations the rule darkens (0 for
// classes that do not target stations).
func (ar *ActiveRule) AffectedBS() int { return len(ar.down) }

// NoteInjected records that an episode planned by this rule actually
// started executing on a device.
func (ar *ActiveRule) NoteInjected() {
	ar.injected.Add(1)
	mInjected[ar.Class].Inc()
	mActive.Add(1)
}

// NoteRecovered records that an injected episode ran to conclusion — the
// device returned to a legal steady state and the monitor recorded or
// filtered the event, exactly as a real outage would end.
func (ar *ActiveRule) NoteRecovered() {
	ar.recovered.Add(1)
	mRecovered[ar.Class].Inc()
	mActive.Add(-1)
}

// NoteDropped records that a planned episode never started (the device
// was saturated past the retry budget, hit its event cap, or had no
// serving BS to fail against).
func (ar *ActiveRule) NoteDropped() {
	ar.dropped.Add(1)
	mDropped[ar.Class].Inc()
}

// SampleCause draws a Data_Setup_Error cause from the rule's override mix
// (ok is false when the rule has none and the environment mix applies).
func (ar *ActiveRule) SampleCause(r *rng.Source) (telephony.FailCause, bool) {
	if ar.causePick == nil {
		return telephony.CauseNone, false
	}
	return ar.Causes[ar.causePick.Draw(r)], true
}

// downAt reports whether the rule holds bs out of service at virtual
// time at.
func (ar *ActiveRule) downAt(bs *simnet.BaseStation, at time.Duration) bool {
	if !ar.ActiveAt(at) {
		return false
	}
	if _, ok := ar.down[bs]; !ok {
		return false
	}
	if ar.Class == ClassBSBlackout {
		return true
	}
	// Flap: down during the first DutyDown of each period, phase-shifted
	// per BS so a flap rule does not synchronize the whole deployment.
	pos := math.Mod((at - ar.Start + ar.phase[bs]).Seconds(), ar.Period.Seconds())
	return pos < ar.DutyDown*ar.Period.Seconds()
}

// Injector is a compiled campaign bound to one deployment. It is shared
// across worker shards and implements simnet.Overlay; the overlay queries
// are read-only, and the network-fault state (netfault.go) is the one
// mutable part, guarded by its own mutex.
type Injector struct {
	campaign *Campaign
	rules    []*ActiveRule
	seed     int64

	// Per-class rule indices so the hot overlay queries skip unrelated
	// rules.
	downRules  []*ActiveRule // blackout + flap
	shiftRules []*ActiveRule // rss-degrade
	ratRules   []*ActiveRule // rat-downgrade
	stormRules []*ActiveRule // setup-storm + stall-storm
	netRules   []*ActiveRule // collector-outage + ack-loss + link-flaky

	netMu   sync.Mutex
	netDevs map[uint64]*netDevice
}

// Compile binds a campaign to a deployment. Station selection for
// blackout/flap rules draws from a stream split off (seed, rule name), so
// the same campaign on the same deployment darkens the same stations for
// any worker count. A nil campaign compiles to a nil injector.
func Compile(c *Campaign, stations []*simnet.BaseStation, seed int64) (*Injector, error) {
	if c == nil {
		return nil, nil
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{campaign: c, seed: seed, netDevs: make(map[uint64]*netDevice)}
	for i := range c.Rules {
		ar := &ActiveRule{Rule: c.Rules[i]}
		switch ar.Class {
		case ClassCollectorOutage, ClassAckLoss, ClassLinkFlaky:
			inj.netRules = append(inj.netRules, ar)
		case ClassBSBlackout, ClassBSFlap:
			r := rng.SplitIndexed(seed, "faultinject/"+ar.Name, i)
			ar.down = make(map[*simnet.BaseStation]struct{})
			if ar.Class == ClassBSFlap {
				ar.phase = make(map[*simnet.BaseStation]time.Duration)
			}
			for _, bs := range stations {
				if !ar.Sel.MatchBS(bs) || !r.Bool(ar.Sel.BSFraction) {
					continue
				}
				ar.down[bs] = struct{}{}
				if ar.Class == ClassBSFlap {
					ar.phase[bs] = time.Duration(r.Float64() * float64(ar.Period))
				}
			}
			inj.downRules = append(inj.downRules, ar)
		case ClassRSSDegrade:
			inj.shiftRules = append(inj.shiftRules, ar)
		case ClassRATDowngrade:
			inj.ratRules = append(inj.ratRules, ar)
		case ClassSetupStorm, ClassStallStorm:
			if len(ar.Causes) > 0 {
				ws := make([]float64, len(ar.Causes))
				for j := range ws {
					ws[j] = 1
				}
				ar.causePick = rng.NewCategorical(ws)
			}
			inj.stormRules = append(inj.stormRules, ar)
		}
		inj.rules = append(inj.rules, ar)
	}
	mCampaigns.Inc()
	return inj, nil
}

// Campaign returns the source campaign.
func (inj *Injector) Campaign() *Campaign { return inj.campaign }

// Rules returns the compiled rules in campaign order.
func (inj *Injector) Rules() []*ActiveRule { return inj.rules }

// StormRules returns the compiled setup-storm and stall-storm rules.
func (inj *Injector) StormRules() []*ActiveRule { return inj.stormRules }

// DownRuleFor returns the first rule holding bs out of service at virtual
// time at, or nil when the station is up.
func (inj *Injector) DownRuleFor(bs *simnet.BaseStation, at time.Duration) *ActiveRule {
	if inj == nil || bs == nil {
		return nil
	}
	for _, ar := range inj.downRules {
		if ar.downAt(bs, at) {
			return ar
		}
	}
	return nil
}

// BSDown reports whether any rule holds bs out of service at virtual
// time at.
func (inj *Injector) BSDown(bs *simnet.BaseStation, at time.Duration) bool {
	return inj.DownRuleFor(bs, at) != nil
}

// LevelShift implements simnet.Overlay: the summed signal-level downshift
// of every rss-degrade rule covering (isp, region) at virtual time at.
func (inj *Injector) LevelShift(isp simnet.ISPID, region geo.Region, at time.Duration) int {
	if inj == nil {
		return 0
	}
	shift := 0
	for _, ar := range inj.shiftRules {
		if !ar.ActiveAt(at) {
			continue
		}
		if ar.Sel.ISP != nil && *ar.Sel.ISP != isp {
			continue
		}
		if ar.Sel.Region != nil && *ar.Sel.Region != region {
			continue
		}
		shift += int(math.Round(ar.Intensity))
	}
	return shift
}

// RATBlocked implements simnet.Overlay: whether a rat-downgrade rule
// blocks the technology for the ISP at virtual time at.
func (inj *Injector) RATBlocked(isp simnet.ISPID, rat telephony.RAT, at time.Duration) bool {
	if inj == nil {
		return false
	}
	for _, ar := range inj.ratRules {
		if !ar.ActiveAt(at) || ar.Sel.RAT != rat {
			continue
		}
		if ar.Sel.ISP != nil && *ar.Sel.ISP != isp {
			continue
		}
		return true
	}
	return false
}

// RuleReport is one rule's episode accounting after a run.
type RuleReport struct {
	Name       string
	Class      string
	AffectedBS int
	Injected   int64
	Recovered  int64
	Dropped    int64
}

// Report summarizes a campaign's execution: per-rule injected, recovered
// and dropped episode counts. Unresolved() == 0 is the core recovery
// invariant — every injected outage concluded inside the run.
type Report struct {
	Campaign string
	Rules    []RuleReport
}

// Report snapshots the injector's counters (call after the run).
func (inj *Injector) Report() *Report {
	if inj == nil {
		return nil
	}
	rep := &Report{Campaign: inj.campaign.Name}
	for _, ar := range inj.rules {
		rep.Rules = append(rep.Rules, RuleReport{
			Name:       ar.Name,
			Class:      ar.Class.String(),
			AffectedBS: ar.AffectedBS(),
			Injected:   ar.injected.Load(),
			Recovered:  ar.recovered.Load(),
			Dropped:    ar.dropped.Load(),
		})
	}
	return rep
}

// Unresolved returns the number of injected episodes that never
// concluded.
func (r *Report) Unresolved() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for _, rr := range r.Rules {
		n += rr.Injected - rr.Recovered
	}
	return n
}

// TotalInjected returns the number of episodes that started across all
// rules. Tests in two packages read it; the commands print per rule.
func (r *Report) TotalInjected() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for _, rr := range r.Rules {
		n += rr.Injected
	}
	return n
}

// String renders a one-line-per-rule summary.
func (r *Report) String() string {
	if r == nil {
		return "no fault campaign"
	}
	out := fmt.Sprintf("campaign %q:", r.Campaign)
	for _, rr := range r.Rules {
		out += fmt.Sprintf("\n  %-20s %-13s injected=%-6d recovered=%-6d dropped=%-4d", rr.Name, rr.Class, rr.Injected, rr.Recovered, rr.Dropped)
		if rr.AffectedBS > 0 {
			out += fmt.Sprintf(" bs=%d", rr.AffectedBS)
		}
	}
	return out
}
