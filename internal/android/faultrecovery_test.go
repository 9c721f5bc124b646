package android

import (
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/telephony"
)

// chaosRadio is a radio whose health can be toggled mid-test: while
// failing, every setup attempt completes with the configured cause.
type chaosRadio struct {
	clock   *simclock.Scheduler
	latency time.Duration
	failing bool
	cause   telephony.FailCause
	setups  int
}

func (r *chaosRadio) Setup(tag uint64, done func(uint64, SetupOutcome)) {
	r.setups++
	out := SetupOutcome{Success: true}
	if r.failing {
		out = SetupOutcome{Success: false, Cause: r.cause}
	}
	r.clock.After(r.latency, func() { done(tag, out) })
}

func (r *chaosRadio) Teardown(done func()) {
	r.clock.After(r.latency, done)
}

// TestStateMachineRecoversFromEveryFaultClass is the Figure-1 invariant
// table: from every data-connection state, under every fault class the
// injection subsystem can produce, the machine must settle into a legal
// terminal state (Inactive or Active) within a bounded amount of virtual
// time, and once the fault clears a fresh setup must reach Active again.
// No combination may wedge the machine in Activating, Retrying, or
// Disconnect.
func TestStateMachineRecoversFromEveryFaultClass(t *testing.T) {
	// settleBound comfortably covers the full default retry schedule
	// (1+2+4+8+16s plus per-attempt latency) with slack.
	const settleBound = 5 * time.Minute

	type env struct {
		clock *simclock.Scheduler
		radio *chaosRadio
		dc    *DataConnection
	}

	// One driver per Figure-1 state, leaving the machine exactly there.
	states := []struct {
		name  string
		state DcState
		enter func(*env)
	}{
		{"Inactive", DcInactive, func(e *env) {}},
		{"Activating", DcActivating, func(e *env) {
			e.dc.RequestSetup()
		}},
		{"Retrying", DcRetrying, func(e *env) {
			e.radio.failing = true
			e.radio.cause = telephony.CauseNoService
			e.dc.RequestSetup()
			e.clock.Run(e.radio.latency) // first attempt fails, retry pending
			e.radio.failing = false
		}},
		{"Active", DcActive, func(e *env) {
			e.dc.RequestSetup()
			e.clock.RunAll()
		}},
		{"Disconnect", DcDisconnecting, func(e *env) {
			e.dc.RequestSetup()
			e.clock.RunAll()
			e.dc.Teardown()
		}},
	}

	// One perturbation per fault class, phrased as what the class does to
	// a device: blackouts and flaps kill service under an active
	// connection, setup storms fail every attempt with a protocol cause,
	// RSS degradation and RAT downgrades surface as signal loss, and stall
	// storms trigger the recovery engine's teardown/re-setup cycle.
	faults := []struct {
		name   string
		inject func(*env)
	}{
		{"bs-blackout", func(e *env) {
			e.radio.failing = true
			e.radio.cause = telephony.CauseNoService
			e.dc.ConnectionLost(telephony.CauseSignalLost)
		}},
		{"bs-flap", func(e *env) {
			// Two down/up cycles in quick succession.
			for i := 0; i < 2; i++ {
				e.radio.failing = true
				e.radio.cause = telephony.CauseNoService
				e.dc.ConnectionLost(telephony.CauseSignalLost)
				if e.dc.State() == DcInactive {
					e.dc.RequestSetup()
				}
				e.clock.Run(2 * e.radio.latency)
				e.radio.failing = false
				e.clock.Run(30 * time.Second)
			}
		}},
		{"rss-degrade", func(e *env) {
			e.dc.ConnectionLost(telephony.CauseSignalLost)
		}},
		{"setup-storm", func(e *env) {
			e.radio.failing = true
			e.radio.cause = telephony.CauseEMMAccessBarred
			e.dc.ConnectionLost(telephony.CauseEMMAccessBarred)
			if e.dc.State() == DcInactive {
				e.dc.RequestSetup()
			}
		}},
		{"rat-downgrade", func(e *env) {
			e.dc.ConnectionLost(telephony.CauseSignalLost)
			if e.dc.State() == DcInactive {
				e.dc.RequestSetup()
			}
		}},
		{"stall-storm", func(e *env) {
			// The recovery engine's cleanup: tear down, then re-establish.
			e.dc.Teardown()
			e.clock.Run(2 * e.radio.latency)
			if e.dc.State() == DcInactive {
				e.dc.RequestSetup()
			}
		}},
	}

	for _, st := range states {
		for _, f := range faults {
			t.Run(st.name+"/"+f.name, func(t *testing.T) {
				e := &env{clock: simclock.NewScheduler()}
				e.radio = &chaosRadio{clock: e.clock, latency: 200 * time.Millisecond}
				e.dc = NewDataConnection(e.clock, e.radio, DefaultDataConnectionConfig(), Hooks{})

				st.enter(e)
				if e.dc.State() != st.state {
					t.Fatalf("driver left machine in %v, want %v", e.dc.State(), st.state)
				}

				start := e.clock.Now()
				f.inject(e)
				e.clock.RunAll()

				// Invariant 1: the machine settles into a legal terminal
				// state — it never wedges mid-transition.
				switch e.dc.State() {
				case DcInactive, DcActive:
				default:
					t.Fatalf("machine wedged in %v after %s", e.dc.State(), f.name)
				}

				// Invariant 2: settling is bounded in virtual time.
				if settled := e.clock.Now() - start; settled > settleBound {
					t.Fatalf("took %v of virtual time to settle, bound is %v", settled, settleBound)
				}

				// Invariant 3: once the fault clears, a fresh setup must
				// reach Active — the fault left no residue.
				e.radio.failing = false
				if e.dc.State() == DcActive {
					e.dc.Teardown()
					e.clock.RunAll()
				}
				if err := e.dc.RequestSetup(); err != nil {
					t.Fatalf("post-fault RequestSetup rejected: %v", err)
				}
				e.clock.RunAll()
				if e.dc.State() != DcActive {
					t.Fatalf("post-fault recovery ended in %v, want Active", e.dc.State())
				}
			})
		}
	}
}
