package android

import (
	"time"

	"repro/internal/simclock"
)

// StallDetectorConfig tunes Data_Stall detection.
type StallDetectorConfig struct {
	// Window is the observation window; Android uses one minute.
	Window time.Duration
	// CheckInterval is how often the window is evaluated.
	CheckInterval time.Duration
	// TxThreshold is the minimum outbound TCP segment count that, combined
	// with zero inbound segments, declares a stall; Android uses 10.
	TxThreshold int
}

// DefaultStallDetectorConfig returns Android's parameters: a Data_Stall is
// reported when there have been over 10 outbound TCP segments but not a
// single inbound segment during the last minute (statistics kept by the
// kernel's network stack).
func DefaultStallDetectorConfig() StallDetectorConfig {
	return StallDetectorConfig{
		Window:        time.Minute,
		CheckInterval: 10 * time.Second,
		TxThreshold:   10,
	}
}

// StallDetector watches TCP segment counters for the Data_Stall condition.
// It reproduces the detection granularity problem the paper fixes in
// Android-MOD: detection lags the actual stall onset by up to Window, so
// durations measured from detection alone carry non-trivial error (§2.2).
type StallDetector struct {
	clock *simclock.Scheduler
	cfg   StallDetectorConfig
	// OnStall fires once per stall episode at detection time.
	OnStall func()

	running bool
	stalled bool
	ticker  simclock.Timer
	tickFn  func()
	samples []segSample
}

type segSample struct {
	at     simclock.Time
	tx, rx int
}

// NewStallDetector creates a detector; call Start when the data connection
// becomes active.
func NewStallDetector(clock *simclock.Scheduler, cfg StallDetectorConfig, onStall func()) *StallDetector {
	if cfg.Window <= 0 || cfg.CheckInterval <= 0 || cfg.TxThreshold <= 0 {
		cfg = DefaultStallDetectorConfig()
	}
	d := &StallDetector{clock: clock, cfg: cfg, OnStall: onStall}
	d.tickFn = d.tick
	return d
}

// Start begins periodic evaluation. Counters are cleared.
func (d *StallDetector) Start() {
	if d.running {
		return
	}
	d.running = true
	d.stalled = false
	d.samples = d.samples[:0]
	d.scheduleTick()
}

// Stop halts evaluation (connection torn down).
func (d *StallDetector) Stop() {
	d.running = false
	d.stalled = false
	d.ticker.Stop()
	d.samples = d.samples[:0]
}

// Running reports whether the detector is active.
func (d *StallDetector) Running() bool { return d.running }

// Stalled reports whether a stall is currently flagged.
func (d *StallDetector) Stalled() bool { return d.stalled }

// RecordTx accounts n outbound TCP segments.
func (d *StallDetector) RecordTx(n int) {
	if !d.running || n <= 0 {
		return
	}
	d.samples = append(d.samples, segSample{at: d.clock.Now(), tx: n})
}

// RecordRx accounts n inbound TCP segments. Any inbound traffic clears a
// flagged stall: the kernel statistics no longer match the condition.
func (d *StallDetector) RecordRx(n int) {
	if !d.running || n <= 0 {
		return
	}
	d.samples = append(d.samples, segSample{at: d.clock.Now(), rx: n})
	if d.stalled {
		d.stalled = false
	}
}

// ClearStall resets the stall flag after recovery so a subsequent episode
// is reported again.
func (d *StallDetector) ClearStall() { d.stalled = false }

// scheduleTick re-arms the detector's one ticker.
func (d *StallDetector) scheduleTick() {
	d.clock.ArmAfter(&d.ticker, d.cfg.CheckInterval, d.tickFn)
}

func (d *StallDetector) tick() {
	if !d.running {
		return
	}
	d.evaluate()
	d.scheduleTick()
}

func (d *StallDetector) evaluate() {
	cutoff := d.clock.Now() - d.cfg.Window
	// Prune samples older than the window.
	keep := d.samples[:0]
	tx, rx := 0, 0
	for _, s := range d.samples {
		if s.at < cutoff {
			continue
		}
		keep = append(keep, s)
		tx += s.tx
		rx += s.rx
	}
	d.samples = keep
	if d.stalled {
		return
	}
	if tx > d.cfg.TxThreshold && rx == 0 {
		d.stalled = true
		if d.OnStall != nil {
			d.OnStall()
		}
	}
}
