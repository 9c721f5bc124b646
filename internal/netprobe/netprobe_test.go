package netprobe

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simclock"
)

func newProbe(t *testing.T, cond Condition) (*simclock.Scheduler, *SimHost, *Prober, *[]Outcome) {
	t.Helper()
	clock := simclock.NewScheduler()
	host := NewSimHost()
	host.SetCondition(cond)
	var outs []Outcome
	p := NewProber(clock, host, DefaultConfig(), func(o Outcome) { outs = append(outs, o) })
	return clock, host, p, &outs
}

func TestHealthyHostRecoversImmediately(t *testing.T) {
	clock, _, p, outs := newProbe(t, Healthy)
	p.Start()
	clock.RunAll()
	if len(*outs) != 1 {
		t.Fatalf("outcomes = %d, want 1", len(*outs))
	}
	o := (*outs)[0]
	if o.Verdict != VerdictRecovered || o.Rounds != 1 || o.Duration != 0 {
		t.Errorf("outcome = %+v", o)
	}
}

func TestSystemSideFaultsClassifiedAsFalsePositive(t *testing.T) {
	for _, cond := range []Condition{FirewallMisconfig, ProxyProblem, ModemDriverFailure} {
		clock, _, p, outs := newProbe(t, cond)
		p.Start()
		clock.RunAll()
		if len(*outs) != 1 || (*outs)[0].Verdict != VerdictSystemSideFP {
			t.Errorf("%v: outcome = %+v, want system-side FP", cond, *outs)
		}
		if !cond.SystemSide() {
			t.Errorf("%v.SystemSide() = false", cond)
		}
	}
}

func TestDNSOnlyFailureClassified(t *testing.T) {
	clock, _, p, outs := newProbe(t, DNSUnavailable)
	p.Start()
	clock.RunAll()
	if len(*outs) != 1 || (*outs)[0].Verdict != VerdictDNSFP {
		t.Fatalf("outcome = %+v, want DNS FP", *outs)
	}
	// Classification takes one round: DNS timeout of 5 s dominates.
	if got := (*outs)[0].Duration; got != 0 {
		t.Errorf("duration = %v, want 0 (single round verdict)", got)
	}
}

func TestNetworkStallMeasuredWithinFiveSeconds(t *testing.T) {
	clock, host, p, outs := newProbe(t, NetworkDown)
	p.Start()
	trueDuration := 47 * time.Second
	clock.At(trueDuration, func() { host.SetCondition(Healthy) })
	clock.RunAll()
	if len(*outs) != 1 {
		t.Fatalf("outcomes = %d", len(*outs))
	}
	o := (*outs)[0]
	if o.Verdict != VerdictRecovered {
		t.Fatalf("verdict = %v", o.Verdict)
	}
	if o.Duration < trueDuration-5*time.Second || o.Duration > trueDuration+5*time.Second {
		t.Errorf("measured %v for a %v stall; error must be ≤ 5 s", o.Duration, trueDuration)
	}
	if o.MaxError > 5*time.Second {
		t.Errorf("MaxError = %v, want ≤ 5 s before backoff", o.MaxError)
	}
	if o.Rounds < 5 {
		t.Errorf("rounds = %d; a 47 s network stall needs ~10 rounds", o.Rounds)
	}
	if o.RevertedToLegacy {
		t.Error("short stall must not revert to legacy")
	}
}

func TestShortStallFineGranularity(t *testing.T) {
	clock, host, p, outs := newProbe(t, NetworkDown)
	p.Start()
	clock.At(7*time.Second, func() { host.SetCondition(Healthy) })
	clock.RunAll()
	o := (*outs)[0]
	// Vanilla Android would report ≥ 60 s here; the prober must do much
	// better (the paper's whole point for short stalls).
	if o.Duration > 12*time.Second {
		t.Errorf("measured %v for a 7 s stall", o.Duration)
	}
}

func TestBackoffDoublesTimeoutsPast1200s(t *testing.T) {
	clock, host, p, outs := newProbe(t, NetworkDown)
	p.Start()
	clock.At(1300*time.Second, func() { host.SetCondition(Healthy) })
	clock.RunAll()
	o := (*outs)[0]
	if o.Verdict != VerdictRecovered {
		t.Fatalf("verdict = %v", o.Verdict)
	}
	// Before 1200 s: 5 s rounds → 240 rounds. After: doubling rounds.
	// Total rounds must be far below 260 (pure 5 s rounds would need 260).
	if o.Rounds >= 260 {
		t.Errorf("rounds = %d; backoff should have reduced round count", o.Rounds)
	}
	// Doubling reaches the one-minute revert threshold within ~75 s past
	// the backoff point (10+20+40 s rounds, then DNS timeout 80 s > 60 s),
	// so the error bound is the legacy one minute.
	if o.Duration < 1240*time.Second || o.Duration > 1360*time.Second {
		t.Errorf("measured %v for a 1300 s stall; must be within legacy error", o.Duration)
	}
}

func TestRevertToLegacyOnVeryLongStall(t *testing.T) {
	clock, host, p, outs := newProbe(t, NetworkDown)
	p.Start()
	trueDuration := 4000 * time.Second
	clock.At(trueDuration, func() { host.SetCondition(Healthy) })
	clock.RunAll()
	o := (*outs)[0]
	if !o.RevertedToLegacy {
		t.Fatalf("a %v stall should force legacy fallback, got %+v", trueDuration, o)
	}
	if o.Verdict != VerdictRecovered {
		t.Errorf("verdict = %v", o.Verdict)
	}
	if o.MaxError != time.Minute {
		t.Errorf("legacy MaxError = %v, want 1 minute", o.MaxError)
	}
	if o.Duration < trueDuration-time.Minute || o.Duration > trueDuration+time.Minute {
		t.Errorf("legacy-measured %v for a %v stall", o.Duration, trueDuration)
	}
}

func TestAbortSuppressesOutcome(t *testing.T) {
	clock, _, p, outs := newProbe(t, NetworkDown)
	p.Start()
	clock.At(12*time.Second, func() { p.Abort() })
	clock.Run(100 * time.Second)
	if len(*outs) != 0 {
		t.Fatalf("aborted probe produced outcome %+v", *outs)
	}
	if p.Active() {
		t.Error("prober still active after abort")
	}
}

// TestRestartAfterAbortRunsOneRoundChain aborts a stall mid-round and
// starts a new one: the aborted round's completion must not resume, so
// the new episode runs one 5 s round chain from 2 s (rounds at 2, 7, 12
// and 17 s stall; the round at 22 s sees the host healed at 20 s).
func TestRestartAfterAbortRunsOneRoundChain(t *testing.T) {
	clock, host, p, outs := newProbe(t, NetworkDown)
	p.Start()
	clock.At(2*time.Second, func() {
		p.Abort()
		p.Start()
	})
	clock.At(20*time.Second, func() { host.SetCondition(Healthy) })
	clock.RunAll()
	if len(*outs) != 1 {
		t.Fatalf("outcomes = %+v, want 1", *outs)
	}
	if o := (*outs)[0]; o.Verdict != VerdictRecovered || o.Rounds != 5 || o.Duration != 20*time.Second {
		t.Errorf("outcome = %+v, want recovered after 5 rounds, 20s", o)
	}
}

func TestStartIdempotentWhileActive(t *testing.T) {
	clock, host, p, outs := newProbe(t, NetworkDown)
	p.Start()
	clock.At(2*time.Second, func() { p.Start() }) // ignored
	clock.At(9*time.Second, func() { host.SetCondition(Healthy) })
	clock.RunAll()
	if len(*outs) != 1 {
		t.Fatalf("outcomes = %d, want 1", len(*outs))
	}
}

func TestProberReusable(t *testing.T) {
	clock, host, p, outs := newProbe(t, NetworkDown)
	p.Start()
	clock.At(6*time.Second, func() { host.SetCondition(Healthy) })
	clock.RunAll()
	host.SetCondition(NetworkDown)
	p.Start()
	clock.At(clock.Now()+11*time.Second, func() { host.SetCondition(Healthy) })
	clock.RunAll()
	if len(*outs) != 2 {
		t.Fatalf("outcomes = %d, want 2", len(*outs))
	}
	if (*outs)[1].Duration > 16*time.Second {
		t.Errorf("second episode measured %v, want ≈11 s", (*outs)[1].Duration)
	}
}

func TestZeroDNSServersClampedToOne(t *testing.T) {
	clock, host, p, outs := newProbe(t, Healthy)
	host.NumDNSServers = 0
	p.Start()
	clock.RunAll()
	if len(*outs) != 1 || (*outs)[0].Verdict != VerdictRecovered {
		t.Fatalf("outcome = %+v", *outs)
	}
}

func TestInvalidConfigDefaults(t *testing.T) {
	clock := simclock.NewScheduler()
	p := NewProber(clock, NewSimHost(), Config{}, nil)
	if p.cfg.ICMPTimeout != time.Second || p.cfg.DNSTimeout != 5*time.Second {
		t.Errorf("config not defaulted: %+v", p.cfg)
	}
}

func TestConditionStrings(t *testing.T) {
	for c := Healthy; c <= DNSUnavailable; c++ {
		if c.String() == "unknown" {
			t.Errorf("condition %d has no string", c)
		}
	}
	if Condition(99).String() != "unknown" {
		t.Error("out-of-range condition should be unknown")
	}
	for v := VerdictStillStalled; v <= VerdictDNSFP; v++ {
		if v.String() == "unknown" {
			t.Errorf("verdict %d has no string", v)
		}
	}
	if Verdict(99).String() != "unknown" {
		t.Error("out-of-range verdict should be unknown")
	}
}

func TestOnDoneNilIsSafe(t *testing.T) {
	clock := simclock.NewScheduler()
	p := NewProber(clock, NewSimHost(), DefaultConfig(), nil)
	p.Start()
	clock.RunAll() // must not panic
}

// fiveTimerProber is the probing round as first written, kept as the
// oracle for Prober: each of the 1+2n probes is its own After timer whose
// callback records the reply and decrements a counter, and the round
// completes inside the last of them (five timers with two DNS servers).
type fiveTimerProber struct {
	clock  *simclock.Scheduler
	host   *SimHost
	cfg    Config
	OnDone func(Outcome)

	active      bool
	start       simclock.Time
	rounds      int
	icmpTimeout time.Duration
	dnsTimeout  time.Duration
	legacy      bool
	legacyTimer *simclock.Timer
}

func newFiveTimerProber(clock *simclock.Scheduler, host *SimHost, cfg Config, onDone func(Outcome)) *fiveTimerProber {
	p := NewProber(clock, host, cfg, nil) // the same config defaulting
	return &fiveTimerProber{clock: clock, host: host, cfg: p.cfg, OnDone: onDone}
}

func (p *fiveTimerProber) Start() {
	if p.active {
		return
	}
	p.active = true
	p.start = p.clock.Now()
	p.rounds = 0
	p.icmpTimeout = p.cfg.ICMPTimeout
	p.dnsTimeout = p.cfg.DNSTimeout
	p.legacy = false
	p.round()
}

func (p *fiveTimerProber) Abort() {
	p.active = false
	if p.legacyTimer != nil {
		p.legacyTimer.Stop()
	}
}

func (p *fiveTimerProber) pingLoopback(timeout time.Duration, done func(bool)) {
	h := p.host
	if h.cond.SystemSide() {
		p.clock.After(timeout, func() { done(false) })
		return
	}
	p.answer(h.LoopbackRTT, timeout, done)
}

func (p *fiveTimerProber) pingDNS(timeout time.Duration, done func(bool)) {
	h := p.host
	switch h.cond {
	case NetworkDown, FirewallMisconfig, ProxyProblem, ModemDriverFailure:
		p.clock.After(timeout, func() { done(false) })
	default:
		p.answer(h.ICMPRTT, timeout, done)
	}
}

func (p *fiveTimerProber) queryDNS(timeout time.Duration, done func(bool)) {
	h := p.host
	if h.cond == Healthy {
		p.answer(h.DNSRTT, timeout, done)
		return
	}
	p.clock.After(timeout, func() { done(false) })
}

func (p *fiveTimerProber) answer(rtt, timeout time.Duration, done func(bool)) {
	if rtt >= timeout {
		p.clock.After(timeout, func() { done(false) })
		return
	}
	p.clock.After(rtt, func() { done(true) })
}

func (p *fiveTimerProber) round() {
	if !p.active {
		return
	}
	roundStart := p.clock.Now()
	p.rounds++
	if roundStart-p.start > p.cfg.BackoffAfter && p.rounds > 1 {
		p.icmpTimeout = time.Duration(float64(p.icmpTimeout) * p.cfg.BackoffFactor)
		p.dnsTimeout = time.Duration(float64(p.dnsTimeout) * p.cfg.BackoffFactor)
	}
	if p.icmpTimeout > p.cfg.RevertThreshold || p.dnsTimeout > p.cfg.RevertThreshold {
		p.revertToLegacy()
		return
	}
	n := p.host.NumDNSServers
	if n < 1 {
		n = 1
	}
	var (
		pending    = 1 + 2*n
		loopbackOK bool
		icmpOK     int
		dnsOK      int
	)
	complete := func() {
		if !p.active {
			return
		}
		switch {
		case !loopbackOK:
			p.finish(VerdictSystemSideFP, roundStart)
		case dnsOK > 0:
			p.finish(VerdictRecovered, roundStart)
		case icmpOK > 0:
			p.finish(VerdictDNSFP, roundStart)
		default:
			p.round()
		}
	}
	collect := func(set func(bool)) func(bool) {
		return func(ok bool) {
			set(ok)
			pending--
			if pending == 0 {
				complete()
			}
		}
	}
	p.pingLoopback(p.icmpTimeout, collect(func(ok bool) { loopbackOK = ok }))
	for i := 0; i < n; i++ {
		p.pingDNS(p.icmpTimeout, collect(func(ok bool) {
			if ok {
				icmpOK++
			}
		}))
		p.queryDNS(p.dnsTimeout, collect(func(ok bool) {
			if ok {
				dnsOK++
			}
		}))
	}
}

func (p *fiveTimerProber) revertToLegacy() {
	p.legacy = true
	var poll func()
	poll = func() {
		if !p.active {
			return
		}
		if p.host.ConditionNow() == Healthy {
			p.finish(VerdictRecovered, p.clock.Now())
			return
		}
		p.legacyTimer = p.clock.After(p.cfg.LegacyInterval, poll)
	}
	poll()
}

func (p *fiveTimerProber) finish(v Verdict, observedAt simclock.Time) {
	p.active = false
	maxErr := p.dnsTimeout
	if p.legacy {
		maxErr = p.cfg.LegacyInterval
	}
	if p.OnDone != nil {
		p.OnDone(Outcome{
			Verdict:          v,
			Duration:         observedAt - p.start,
			Rounds:           p.rounds,
			RevertedToLegacy: p.legacy,
			MaxError:         maxErr,
		})
	}
}

// stampedOutcome is an outcome with the virtual time it was delivered.
type stampedOutcome struct {
	Outcome
	At simclock.Time
}

// oracleCase is one host set-up and condition script. before runs ahead
// of Start (its events precede the round's in sequence order), after runs
// right behind it.
type oracleCase struct {
	name          string
	cond          Condition
	dns           int
	host          func(*SimHost)
	before, after func(*simclock.Scheduler, *SimHost)
}

// runProbe drives one prober implementation through a case and returns
// the outcomes it delivered, each stamped with its delivery time.
func runProbe(c oracleCase, oracle bool) []stampedOutcome {
	clock := simclock.NewScheduler()
	host := NewSimHost()
	host.SetCondition(c.cond)
	host.NumDNSServers = c.dns
	if c.host != nil {
		c.host(host)
	}
	var outs []stampedOutcome
	onDone := func(o Outcome) { outs = append(outs, stampedOutcome{o, clock.Now()}) }
	start := NewProber(clock, host, DefaultConfig(), onDone).Start
	if oracle {
		start = newFiveTimerProber(clock, host, DefaultConfig(), onDone).Start
	}
	if c.before != nil {
		c.before(clock, host)
	}
	start()
	if c.after != nil {
		c.after(clock, host)
	}
	clock.Run(3 * time.Hour)
	return outs
}

// healAt flips the host to Healthy at virtual time at.
func healAt(at time.Duration) func(*simclock.Scheduler, *SimHost) {
	return func(clock *simclock.Scheduler, host *SimHost) {
		clock.At(at, func() { host.SetCondition(Healthy) })
	}
}

// TestRoundMatchesFiveTimerOracle checks that the one-completion round
// gives the outcome — verdict, duration, rounds, MaxError, legacy revert —
// and the delivery instant of the five-timer round it replaced, across
// every host condition, DNS server count, RTTs at and past the timeouts,
// the backoff and legacy paths, and host flips at a completion's instant
// on either side of it in sequence order.
func TestRoundMatchesFiveTimerOracle(t *testing.T) {
	var cases []oracleCase
	rtts := []struct {
		name string
		set  func(*SimHost)
	}{
		{"default-rtt", nil},
		{"loopback-rtt=timeout", func(h *SimHost) { h.LoopbackRTT = time.Second }},
		{"icmp-rtt=timeout", func(h *SimHost) { h.ICMPRTT = time.Second }},
		{"icmp-rtt>timeout", func(h *SimHost) { h.ICMPRTT = 3 * time.Second }},
		{"dns-rtt=timeout", func(h *SimHost) { h.DNSRTT = 5 * time.Second }},
		{"dns-rtt>timeout", func(h *SimHost) { h.DNSRTT = 7 * time.Second }},
		{"dns-rtt<icmp-rtt", func(h *SimHost) { h.DNSRTT = 10 * time.Millisecond; h.ICMPRTT = 900 * time.Millisecond }},
	}
	for cond := Healthy; cond <= DNSUnavailable; cond++ {
		for dns := 0; dns <= 3; dns++ {
			for _, rtt := range rtts {
				cases = append(cases, oracleCase{
					name: fmt.Sprintf("%v/dns=%d/%s", cond, dns, rtt.name),
					cond: cond, dns: dns, host: rtt.set,
					// A stall heals after 47 s; a false positive concludes
					// in its first round whatever happens later.
					before: healAt(47 * time.Second),
				})
			}
		}
	}
	for _, heal := range []time.Duration{7 * time.Second, 1300 * time.Second, 4000 * time.Second} {
		for dns := 0; dns <= 3; dns++ {
			cases = append(cases, oracleCase{
				name: fmt.Sprintf("network-down/dns=%d/heal=%v", dns, heal),
				cond: NetworkDown, dns: dns, before: healAt(heal),
			})
		}
	}
	// A NetworkDown round completes every 5 s. A flip at 10 s scheduled
	// before Start precedes round two's completion in sequence order, so
	// round three sees it; one scheduled at 6 s (behind round two's send)
	// follows the completion, so round three still sees the outage. The
	// host heals for good later, so every case concludes.
	for target := Healthy; target <= DNSUnavailable; target++ {
		target := target
		flipAt := func(at time.Duration) func(*simclock.Scheduler, *SimHost) {
			return func(clock *simclock.Scheduler, host *SimHost) {
				clock.At(at, func() { host.SetCondition(target) })
			}
		}
		cases = append(cases,
			oracleCase{name: fmt.Sprintf("flip-to-%v-before-completion", target), cond: NetworkDown, dns: 2,
				before: func(clock *simclock.Scheduler, host *SimHost) {
					flipAt(10*time.Second)(clock, host)
					healAt(60*time.Second)(clock, host)
				}},
			oracleCase{name: fmt.Sprintf("flip-to-%v-after-completion", target), cond: NetworkDown, dns: 2,
				before: healAt(60 * time.Second),
				after: func(clock *simclock.Scheduler, host *SimHost) {
					clock.At(6*time.Second, func() { flipAt(10*time.Second)(clock, host) })
				}},
			// A completion instant in the backoff era: past 1200 s the
			// rounds grow to 10, 20 and 40 s and complete at 1215, 1235 and
			// 1275 s.
			oracleCase{name: fmt.Sprintf("backoff-flip-to-%v", target), cond: NetworkDown, dns: 1,
				before: func(clock *simclock.Scheduler, host *SimHost) {
					flipAt(1235*time.Second)(clock, host)
					healAt(1400*time.Second)(clock, host)
				}},
		)
	}

	for _, c := range cases {
		got, want := runProbe(c, false), runProbe(c, true)
		if len(want) != 1 {
			t.Fatalf("%s: oracle delivered %d outcomes, want 1: %+v", c.name, len(want), want)
		}
		if len(got) != len(want) || got[0] != want[0] {
			t.Errorf("%s: outcome %+v, oracle %+v", c.name, got, want)
		}
	}

	// The flip cases must tell the two sequence orders apart, or they
	// would not test the completion's position.
	before := runProbe(oracleCase{cond: NetworkDown, dns: 2, before: healAt(10 * time.Second)}, false)
	after := runProbe(oracleCase{cond: NetworkDown, dns: 2, after: func(clock *simclock.Scheduler, host *SimHost) {
		clock.At(6*time.Second, func() { healAt(10*time.Second)(clock, host) })
	}}, false)
	if before[0].Duration != 10*time.Second || after[0].Duration != 15*time.Second {
		t.Errorf("flip at a completion instant: before %v, after %v, want 10s and 15s", before[0].Duration, after[0].Duration)
	}
}

// TestSteadyStateRoundAllocatesNothing checks that a probing round — send,
// completion, next send — and a whole healthy episode allocate nothing.
func TestSteadyStateRoundAllocatesNothing(t *testing.T) {
	clock := simclock.NewScheduler()
	host := NewSimHost()
	host.SetCondition(NetworkDown)
	rounds := 0
	p := NewProber(clock, host, DefaultConfig(), func(o Outcome) { rounds += o.Rounds })
	p.Start()
	if allocs := testing.AllocsPerRun(100, func() { clock.Step() }); allocs != 0 {
		t.Errorf("a stalled probing round allocates %v, want 0", allocs)
	}
	if !p.Active() || p.rounds < 100 {
		t.Fatalf("prober active=%v after %d rounds", p.Active(), p.rounds)
	}
	p.Abort()
	clock.RunAll()

	host.SetCondition(Healthy)
	if allocs := testing.AllocsPerRun(100, func() {
		p.Start()
		clock.RunAll()
	}); allocs != 0 {
		t.Errorf("a healthy probe episode allocates %v, want 0", allocs)
	}
	if rounds != 101 {
		t.Errorf("healthy episodes reported %d rounds, want 101", rounds)
	}
}
