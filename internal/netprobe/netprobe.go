// Package netprobe implements Android-MOD's network-state probing component
// (§2.2) against a simulated host network stack.
//
// When a suspicious Data_Stall is detected, the prober simultaneously sends
// an ICMP message to the local loopback address, plus an ICMP message and a
// DNS query to each assigned DNS server. The reply pattern classifies the
// episode:
//
//   - loopback ICMP timeout → the problem is on the system side (erroneous
//     firewall configuration, problematic proxy settings, modem driver
//     failure) — a false positive;
//   - all DNS queries time out and the DNS-server ICMPs time out too → a
//     true network-side stall;
//   - only the DNS queries time out → the DNS resolution service is
//     unavailable — also a false positive;
//   - everything answers → the stall has been fixed.
//
// Timeouts are 1 s for ICMP and 5 s for DNS, so a probing round costs at
// most five seconds and the duration measurement error is ≤ 5 s (versus up
// to a minute for vanilla Android). Past 1200 s of stall the timeouts are
// doubled every round to bound overhead, and once either timeout exceeds
// one minute the prober reverts to Android's legacy one-minute estimation.
package netprobe

import (
	"time"

	"repro/internal/simclock"
)

// Condition is the simulated host/network state underlying an apparent
// stall.
type Condition uint8

// Host conditions.
const (
	Healthy Condition = iota
	NetworkDown
	FirewallMisconfig
	ProxyProblem
	ModemDriverFailure
	DNSUnavailable
)

func (c Condition) String() string {
	switch c {
	case Healthy:
		return "healthy"
	case NetworkDown:
		return "network-down"
	case FirewallMisconfig:
		return "firewall-misconfig"
	case ProxyProblem:
		return "proxy-problem"
	case ModemDriverFailure:
		return "modem-driver-failure"
	case DNSUnavailable:
		return "dns-unavailable"
	default:
		return "unknown"
	}
}

// SystemSide reports whether the condition blocks even loopback delivery.
func (c Condition) SystemSide() bool {
	return c == FirewallMisconfig || c == ProxyProblem || c == ModemDriverFailure
}

// SimHost simulates the device's network stack as seen by the prober.
type SimHost struct {
	cond Condition
	// NumDNSServers is the number of assigned DNS servers (>=1).
	NumDNSServers int
	// Latencies for healthy replies.
	LoopbackRTT time.Duration
	ICMPRTT     time.Duration
	DNSRTT      time.Duration
}

// NewSimHost returns a healthy host with typical latencies.
func NewSimHost() *SimHost {
	return &SimHost{
		cond:          Healthy,
		NumDNSServers: 2,
		LoopbackRTT:   time.Millisecond,
		ICMPRTT:       30 * time.Millisecond,
		DNSRTT:        60 * time.Millisecond,
	}
}

// SetCondition changes the host/network state.
func (h *SimHost) SetCondition(c Condition) { h.cond = c }

// ConditionNow returns the current state.
func (h *SimHost) ConditionNow() Condition { return h.cond }

// A probe reply's fate is fixed when the probe is sent: the host condition
// at send time decides whether it is answered, and the reply (or the
// timeout) lands at a deterministic offset. Each method returns whether
// the probe is answered and after how long the prober learns its fate.

// loopbackReply answers an ICMP echo to 127.0.0.1. System-side faults
// black-hole loopback probes.
func (h *SimHost) loopbackReply(timeout time.Duration) (ok bool, after time.Duration) {
	if h.cond.SystemSide() {
		return false, timeout
	}
	return answer(h.LoopbackRTT, timeout)
}

// icmpReply answers an ICMP echo to an assigned DNS server: a network-side
// outage or a system-side fault swallows it.
func (h *SimHost) icmpReply(timeout time.Duration) (ok bool, after time.Duration) {
	if h.cond == NetworkDown || h.cond.SystemSide() {
		return false, timeout
	}
	return answer(h.ICMPRTT, timeout)
}

// dnsReply answers a DNS query for the dedicated test server's name.
func (h *SimHost) dnsReply(timeout time.Duration) (ok bool, after time.Duration) {
	if h.cond != Healthy {
		return false, timeout
	}
	return answer(h.DNSRTT, timeout)
}

func answer(rtt, timeout time.Duration) (bool, time.Duration) {
	if rtt >= timeout {
		return false, timeout
	}
	return true, rtt
}

// Verdict is a probing round's classification.
type Verdict uint8

// Verdicts.
const (
	VerdictStillStalled Verdict = iota // network-side problem persists
	VerdictRecovered
	VerdictSystemSideFP
	VerdictDNSFP
)

func (v Verdict) String() string {
	switch v {
	case VerdictStillStalled:
		return "still-stalled"
	case VerdictRecovered:
		return "recovered"
	case VerdictSystemSideFP:
		return "system-side-false-positive"
	case VerdictDNSFP:
		return "dns-false-positive"
	default:
		return "unknown"
	}
}

// Config holds the probing schedule.
type Config struct {
	ICMPTimeout     time.Duration // paper: 1 s (RFC 5508 guidance)
	DNSTimeout      time.Duration // paper: 5 s (RFC 1536 guidance)
	BackoffAfter    time.Duration // paper: 1200 s
	BackoffFactor   float64       // paper: ×2
	RevertThreshold time.Duration // paper: 1 minute
	LegacyInterval  time.Duration // vanilla Android's detection granularity
}

// DefaultConfig returns the paper's schedule.
func DefaultConfig() Config {
	return Config{
		ICMPTimeout:     time.Second,
		DNSTimeout:      5 * time.Second,
		BackoffAfter:    1200 * time.Second,
		BackoffFactor:   2,
		RevertThreshold: time.Minute,
		LegacyInterval:  time.Minute,
	}
}

// Outcome summarizes a completed probe episode.
type Outcome struct {
	// Verdict is the terminal classification (never StillStalled).
	Verdict Verdict
	// Duration is the measured stall duration: the elapsed time from probe
	// start to the start of the round that observed recovery.
	Duration time.Duration
	// Rounds is the number of probing rounds issued.
	Rounds int
	// RevertedToLegacy reports whether timeout growth forced fallback to
	// Android's original one-minute estimation.
	RevertedToLegacy bool
	// MaxError bounds the measurement error of Duration.
	MaxError time.Duration
}

// Prober runs probing rounds until the stall resolves or is classified as
// a false positive.
type Prober struct {
	clock *simclock.Scheduler
	host  *SimHost
	cfg   Config
	// OnDone fires exactly once per Start.
	OnDone func(Outcome)

	active      bool
	start       simclock.Time
	rounds      int
	icmpTimeout time.Duration
	dnsTimeout  time.Duration
	legacy      bool
	legacyTimer simclock.Timer

	// roundStart and verdict describe the round in flight; the verdict is
	// known when the probes are sent, and completeFn delivers it at the
	// latest reply's arrival.
	roundStart simclock.Time
	verdict    Verdict
	completeFn func()
	pollFn     func()
}

// NewProber builds a prober over the host.
func NewProber(clock *simclock.Scheduler, host *SimHost, cfg Config, onDone func(Outcome)) *Prober {
	if cfg.ICMPTimeout <= 0 || cfg.DNSTimeout <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.BackoffFactor < 1 {
		cfg.BackoffFactor = 2
	}
	p := &Prober{clock: clock, host: host, cfg: cfg, OnDone: onDone}
	p.completeFn = p.complete
	p.pollFn = p.poll
	return p
}

// Active reports whether an episode is being probed.
func (p *Prober) Active() bool { return p.active }

// Start begins probing a suspicious stall. Starting while active is ignored.
func (p *Prober) Start() {
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

// round sends one probing round: a loopback ICMP, and an ICMP echo and a
// DNS query to each assigned DNS server, all at once. Every reply's fate
// and arrival are fixed at send time, so the round is one scheduled
// completion at the latest arrival carrying the verdict. All DNS servers
// sit behind the same network, so their replies share one fate.
func (p *Prober) round() {
	p.roundStart = p.clock.Now()
	p.rounds++

	// Past the backoff point, double timeouts each round; past the revert
	// threshold, fall back to legacy estimation.
	if p.roundStart-p.start > p.cfg.BackoffAfter && p.rounds > 1 {
		p.icmpTimeout = time.Duration(float64(p.icmpTimeout) * p.cfg.BackoffFactor)
		p.dnsTimeout = time.Duration(float64(p.dnsTimeout) * p.cfg.BackoffFactor)
	}
	if p.icmpTimeout > p.cfg.RevertThreshold || p.dnsTimeout > p.cfg.RevertThreshold {
		p.revertToLegacy()
		return
	}

	loopbackOK, last := p.host.loopbackReply(p.icmpTimeout)
	icmpOK, icmpAfter := p.host.icmpReply(p.icmpTimeout)
	dnsOK, dnsAfter := p.host.dnsReply(p.dnsTimeout)
	last = max(last, icmpAfter, dnsAfter)
	p.verdict = classify(loopbackOK, icmpOK, dnsOK)
	p.clock.Post(p.roundStart+last, p.completeFn)
}

// classify is §2.2's verdict on one round: a dead loopback is a
// system-side false positive, a resolved query a recovery, a reachable DNS
// server that resolves nothing a DNS false positive, and silence from every
// server a genuine network-side stall, which is probed again.
func classify(loopbackOK, icmpOK, dnsOK bool) Verdict {
	switch {
	case !loopbackOK:
		return VerdictSystemSideFP
	case dnsOK:
		return VerdictRecovered
	case icmpOK:
		return VerdictDNSFP
	default:
		return VerdictStillStalled
	}
}

// complete concludes the round in flight when its latest reply (or
// timeout) arrives. An episode ends only here or in poll, each with
// nothing else scheduled, so the completion is always the current
// episode's.
func (p *Prober) complete() {
	if p.verdict == VerdictStillStalled {
		p.round()
		return
	}
	p.finish(p.verdict, p.roundStart)
}

// revertToLegacy polls at Android's one-minute granularity until healthy.
func (p *Prober) revertToLegacy() {
	p.legacy = true
	p.poll()
}

func (p *Prober) poll() {
	if p.host.ConditionNow() == Healthy {
		p.finish(VerdictRecovered, p.clock.Now())
		return
	}
	p.clock.ArmAfter(&p.legacyTimer, p.cfg.LegacyInterval, p.pollFn)
}

func (p *Prober) finish(v Verdict, observedAt simclock.Time) {
	p.active = false
	maxErr := p.dnsTimeout
	if p.legacy {
		maxErr = p.cfg.LegacyInterval
	}
	out := Outcome{
		Verdict:          v,
		Duration:         observedAt - p.start,
		Rounds:           p.rounds,
		RevertedToLegacy: p.legacy,
		MaxError:         maxErr,
	}
	if p.OnDone != nil {
		p.OnDone(out)
	}
}
