package android

import (
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/telephony"
)

// scriptRadio completes setup attempts after latency with scripted outcomes.
type scriptRadio struct {
	clock    *simclock.Scheduler
	latency  time.Duration
	outcomes []SetupOutcome
	next     int
	setups   int
}

func (r *scriptRadio) Setup(tag uint64, done func(uint64, SetupOutcome)) {
	r.setups++
	out := SetupOutcome{Success: true}
	if r.next < len(r.outcomes) {
		out = r.outcomes[r.next]
		r.next++
	}
	r.clock.After(r.latency, func() { done(tag, out) })
}

func (r *scriptRadio) Teardown(done func()) {
	r.clock.After(r.latency/2, func() { done() })
}

type eventLog struct {
	states      []DcState
	setupErrors []telephony.FailCause
	connected   int
	disconnects int
	lost        int
	abandoned   int
}

func (l *eventLog) hooks() Hooks {
	return Hooks{
		OnStateChange: func(_, to DcState) { l.states = append(l.states, to) },
		OnSetupError:  func(c telephony.FailCause, _ int) { l.setupErrors = append(l.setupErrors, c) },
		OnConnected:   func() { l.connected++ },
		OnDisconnected: func(lost bool, _ telephony.FailCause) {
			l.disconnects++
			if lost {
				l.lost++
			}
		},
		OnSetupAbandoned: func(telephony.FailCause) { l.abandoned++ },
	}
}

func TestSetupSuccessPath(t *testing.T) {
	clock := simclock.NewScheduler()
	radio := &scriptRadio{clock: clock, latency: 500 * time.Millisecond}
	log := &eventLog{}
	dc := NewDataConnection(clock, radio, DefaultDataConnectionConfig(), log.hooks())
	if dc.State() != DcInactive {
		t.Fatalf("initial state %v", dc.State())
	}
	if err := dc.RequestSetup(); err != nil {
		t.Fatal(err)
	}
	if dc.State() != DcActivating {
		t.Fatalf("state after request %v, want Activating", dc.State())
	}
	clock.RunAll()
	if dc.State() != DcActive || log.connected != 1 {
		t.Fatalf("state %v connected %d, want Active/1", dc.State(), log.connected)
	}
	want := []DcState{DcActivating, DcActive}
	for i, s := range want {
		if log.states[i] != s {
			t.Fatalf("state sequence %v, want %v", log.states, want)
		}
	}
}

func TestSetupRetryThenSuccess(t *testing.T) {
	clock := simclock.NewScheduler()
	radio := &scriptRadio{
		clock:   clock,
		latency: 100 * time.Millisecond,
		outcomes: []SetupOutcome{
			{Success: false, Cause: telephony.CauseSignalLost},
			{Success: false, Cause: telephony.CausePPPTimeout},
			{Success: true},
		},
	}
	log := &eventLog{}
	dc := NewDataConnection(clock, radio, DefaultDataConnectionConfig(), log.hooks())
	dc.RequestSetup()
	clock.RunAll()
	if dc.State() != DcActive {
		t.Fatalf("state %v, want Active", dc.State())
	}
	if len(log.setupErrors) != 2 {
		t.Fatalf("setup errors %v, want 2", log.setupErrors)
	}
	if log.setupErrors[0] != telephony.CauseSignalLost || log.setupErrors[1] != telephony.CausePPPTimeout {
		t.Fatalf("causes %v", log.setupErrors)
	}
	if radio.setups != 3 {
		t.Fatalf("radio setups = %d, want 3", radio.setups)
	}
	// Retry schedule: attempt at 0, fail at 0.1, retry at 1.1, fail 1.2,
	// retry at 3.2, success at 3.3.
	if clock.Now() != 3300*time.Millisecond {
		t.Errorf("completion at %v, want 3.3s per retry schedule", clock.Now())
	}
}

func TestSetupAbandonedAfterAllRetries(t *testing.T) {
	clock := simclock.NewScheduler()
	fail := SetupOutcome{Success: false, Cause: telephony.CauseNoService}
	radio := &scriptRadio{clock: clock, latency: 10 * time.Millisecond,
		outcomes: []SetupOutcome{fail, fail, fail, fail, fail, fail, fail}}
	log := &eventLog{}
	cfg := DataConnectionConfig{RetryDelays: []time.Duration{time.Second, time.Second}}
	dc := NewDataConnection(clock, radio, cfg, log.hooks())
	dc.RequestSetup()
	clock.RunAll()
	if dc.State() != DcInactive {
		t.Fatalf("state %v, want Inactive after abandoning", dc.State())
	}
	if log.abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", log.abandoned)
	}
	if radio.setups != 3 {
		t.Fatalf("setups = %d, want 3 (1 + 2 retries)", radio.setups)
	}
	if len(log.setupErrors) != 3 {
		t.Fatalf("every failed attempt should report Data_Setup_Error, got %d", len(log.setupErrors))
	}
	// A fresh RequestSetup must be accepted after abandonment.
	radio.outcomes = nil
	if err := dc.RequestSetup(); err != nil {
		t.Fatalf("re-setup rejected: %v", err)
	}
	clock.RunAll()
	if dc.State() != DcActive {
		t.Fatalf("state %v after re-setup, want Active", dc.State())
	}
}

func TestRequestSetupWhileBusy(t *testing.T) {
	clock := simclock.NewScheduler()
	radio := &scriptRadio{clock: clock, latency: time.Second}
	dc := NewDataConnection(clock, radio, DefaultDataConnectionConfig(), Hooks{})
	dc.RequestSetup()
	if err := dc.RequestSetup(); err == nil {
		t.Error("RequestSetup while Activating should error")
	}
	clock.RunAll()
	if err := dc.RequestSetup(); err == nil {
		t.Error("RequestSetup while Active should error")
	}
}

func TestTeardownFromActive(t *testing.T) {
	clock := simclock.NewScheduler()
	radio := &scriptRadio{clock: clock, latency: 100 * time.Millisecond}
	log := &eventLog{}
	dc := NewDataConnection(clock, radio, DefaultDataConnectionConfig(), log.hooks())
	dc.RequestSetup()
	clock.RunAll()
	dc.Teardown()
	if dc.State() != DcDisconnecting {
		t.Fatalf("state %v, want Disconnect", dc.State())
	}
	clock.RunAll()
	if dc.State() != DcInactive || log.disconnects != 1 || log.lost != 0 {
		t.Fatalf("state %v disconnects %d lost %d", dc.State(), log.disconnects, log.lost)
	}
}

func TestTeardownCancelsPendingSetup(t *testing.T) {
	clock := simclock.NewScheduler()
	radio := &scriptRadio{clock: clock, latency: time.Second,
		outcomes: []SetupOutcome{{Success: true}}}
	log := &eventLog{}
	dc := NewDataConnection(clock, radio, DefaultDataConnectionConfig(), log.hooks())
	dc.RequestSetup()
	dc.Teardown() // abort while Activating
	if dc.State() != DcInactive {
		t.Fatalf("state %v, want Inactive", dc.State())
	}
	clock.RunAll() // stale radio callback must be ignored
	if log.connected != 0 {
		t.Error("stale setup outcome connected a torn-down connection")
	}
	if dc.State() != DcInactive {
		t.Fatalf("stale callback moved state to %v", dc.State())
	}
}

func TestTeardownDuringRetryWait(t *testing.T) {
	clock := simclock.NewScheduler()
	radio := &scriptRadio{clock: clock, latency: 10 * time.Millisecond,
		outcomes: []SetupOutcome{{Success: false, Cause: telephony.CauseNoService}}}
	dc := NewDataConnection(clock, radio, DefaultDataConnectionConfig(), Hooks{})
	dc.RequestSetup()
	clock.Run(50 * time.Millisecond) // first attempt failed, now Retrying
	if dc.State() != DcRetrying {
		t.Fatalf("state %v, want Retrying", dc.State())
	}
	dc.Teardown()
	if dc.State() != DcInactive {
		t.Fatalf("state %v, want Inactive", dc.State())
	}
	before := radio.setups
	clock.RunAll()
	if radio.setups != before {
		t.Error("retry fired after teardown")
	}
}

func TestConnectionLost(t *testing.T) {
	clock := simclock.NewScheduler()
	radio := &scriptRadio{clock: clock, latency: 10 * time.Millisecond}
	log := &eventLog{}
	dc := NewDataConnection(clock, radio, DefaultDataConnectionConfig(), log.hooks())
	dc.RequestSetup()
	clock.RunAll()
	dc.ConnectionLost(telephony.CauseSignalLost)
	if dc.State() != DcInactive || log.lost != 1 {
		t.Fatalf("state %v lost %d, want Inactive/1", dc.State(), log.lost)
	}
	// Lost while not active is a no-op.
	dc.ConnectionLost(telephony.CauseSignalLost)
	if log.lost != 1 {
		t.Error("ConnectionLost while Inactive should be ignored")
	}
}

func TestTeardownIdempotent(t *testing.T) {
	clock := simclock.NewScheduler()
	radio := &scriptRadio{clock: clock, latency: 10 * time.Millisecond}
	log := &eventLog{}
	dc := NewDataConnection(clock, radio, DefaultDataConnectionConfig(), log.hooks())
	dc.RequestSetup()
	clock.RunAll()
	dc.Teardown()
	dc.Teardown() // second call during Disconnecting is a no-op
	clock.RunAll()
	if log.disconnects != 1 {
		t.Fatalf("disconnects = %d, want 1", log.disconnects)
	}
	dc.Teardown() // from Inactive: no-op
	if log.disconnects != 1 {
		t.Error("Teardown from Inactive should be a no-op")
	}
}

func TestNilDependenciesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil radio did not panic")
		}
	}()
	NewDataConnection(simclock.NewScheduler(), nil, DefaultDataConnectionConfig(), Hooks{})
}

func TestStateStrings(t *testing.T) {
	want := map[DcState]string{
		DcInactive: "Inactive", DcActivating: "Activating", DcRetrying: "Retrying",
		DcActive: "Active", DcDisconnecting: "Disconnect", DcState(99): "?",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
}

func TestNoRetriesConfig(t *testing.T) {
	clock := simclock.NewScheduler()
	radio := &scriptRadio{clock: clock, latency: 10 * time.Millisecond,
		outcomes: []SetupOutcome{{Success: false, Cause: telephony.CauseNoService}}}
	log := &eventLog{}
	dc := NewDataConnection(clock, radio, DataConnectionConfig{}, log.hooks())
	dc.RequestSetup()
	clock.RunAll()
	// With no retry delays, a single failed attempt abandons immediately.
	if log.abandoned != 1 || radio.setups != 1 {
		t.Errorf("abandoned=%d setups=%d, want immediate abandonment", log.abandoned, radio.setups)
	}
	if dc.State() != DcInactive {
		t.Errorf("state = %v", dc.State())
	}
}

func TestAttemptCounterResets(t *testing.T) {
	clock := simclock.NewScheduler()
	radio := &scriptRadio{clock: clock, latency: 10 * time.Millisecond,
		outcomes: []SetupOutcome{{Success: false, Cause: telephony.CauseNoService}, {Success: true}}}
	dc := NewDataConnection(clock, radio, DefaultDataConnectionConfig(), Hooks{})
	dc.RequestSetup()
	clock.RunAll()
	if dc.State() != DcActive || dc.Attempt() != 2 {
		t.Fatalf("state=%v attempt=%d", dc.State(), dc.Attempt())
	}
	dc.Teardown()
	clock.RunAll()
	if dc.Attempt() != 0 {
		t.Errorf("attempt counter not reset: %d", dc.Attempt())
	}
}
