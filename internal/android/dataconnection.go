// Package android reimplements the cellular connection management internals
// of Android that the paper studies and patches: the data-connection state
// machine of Figure 1 (Inactive, Activating, Retrying, Active, Disconnect),
// the RAT selection policies of Android 9 and 10, the Data_Stall detector
// (over 10 outbound TCP segments and no inbound segment within one minute),
// the three-stage progressive recovery engine with pluggable probation
// triggers, and the 3GPP 4G/5G dual-connectivity mechanism.
package android

import (
	"fmt"
	"time"

	"repro/internal/simclock"
	"repro/internal/telephony"
)

// DcState is a state of the data-connection life cycle (Figure 1).
type DcState uint8

// Data connection states.
const (
	DcInactive DcState = iota
	DcActivating
	DcRetrying
	DcActive
	DcDisconnecting
)

func (s DcState) String() string {
	switch s {
	case DcInactive:
		return "Inactive"
	case DcActivating:
		return "Activating"
	case DcRetrying:
		return "Retrying"
	case DcActive:
		return "Active"
	case DcDisconnecting:
		return "Disconnect"
	default:
		return "?"
	}
}

// SetupOutcome is the radio interface's reply to a connection-setup request.
// On failure, Cause carries the protocol error code generated by the radio
// interface (from negotiation responses or modem command return values).
type SetupOutcome struct {
	Success bool
	Cause   telephony.FailCause
}

// Radio abstracts the underlying radio interface: a setup attempt completes
// asynchronously with an outcome. The fleet simulator implements it against
// the simulated radio environment.
//
// A setup request carries a tag that the reply echoes, like the tag
// Android's DataConnection stamps on each request to its modem: the
// connection passes the same bound callback to every request and tells a
// stale reply (from before a teardown or loss) by its tag.
type Radio interface {
	// Setup initiates a data-connection setup; done(tag, outcome) is
	// invoked exactly once on the simulation clock when the attempt
	// completes.
	Setup(tag uint64, done func(tag uint64, out SetupOutcome))
	// Teardown releases the connection; done is invoked when complete.
	Teardown(done func())
}

// Hooks receives data-connection events. Nil fields are skipped. These are
// the notification interfaces the monitoring service registers on — vanilla
// Android exposes only a subset to user space (§2.1), which is why the
// paper needed a system modification.
type Hooks struct {
	// OnStateChange fires on every transition with old and new state.
	OnStateChange func(from, to DcState)
	// OnSetupError fires when a setup attempt fails; attempt counts from 1.
	OnSetupError func(cause telephony.FailCause, attempt int)
	// OnConnected fires when the connection becomes Active.
	OnConnected func()
	// OnDisconnected fires when the connection returns to Inactive,
	// whether through teardown or loss.
	OnDisconnected func(lost bool, cause telephony.FailCause)
	// OnSetupAbandoned fires when all retry attempts are exhausted.
	OnSetupAbandoned func(lastCause telephony.FailCause)
}

// DataConnectionConfig tunes the state machine.
type DataConnectionConfig struct {
	// RetryDelays are the waits between successive setup attempts, in
	// order; the machine gives up after len(RetryDelays)+1 attempts.
	RetryDelays []time.Duration
}

// DefaultDataConnectionConfig mirrors Android's progressive retry schedule.
func DefaultDataConnectionConfig() DataConnectionConfig {
	return DataConnectionConfig{
		RetryDelays: []time.Duration{
			1 * time.Second, 2 * time.Second, 4 * time.Second,
			8 * time.Second, 16 * time.Second,
		},
	}
}

// DataConnection models the life cycle of one cellular data connection.
// All methods must be called from the simulation clock's goroutine.
type DataConnection struct {
	clock *simclock.Scheduler
	radio Radio
	cfg   DataConnectionConfig
	hooks Hooks

	state      DcState
	attempt    int
	retryTimer simclock.Timer
	// generation invalidates in-flight radio callbacks after a teardown
	// or loss, so a stale outcome cannot corrupt a newer connection. It is
	// the tag of every setup request.
	generation uint64

	// The radio and retry callbacks, bound once per connection.
	setupDoneFn    func(tag uint64, out SetupOutcome)
	teardownDoneFn func()
	retryFn        func()
}

// NewDataConnection returns a connection in the Inactive state.
func NewDataConnection(clock *simclock.Scheduler, radio Radio, cfg DataConnectionConfig, hooks Hooks) *DataConnection {
	if clock == nil || radio == nil {
		panic("android: nil clock or radio")
	}
	dc := &DataConnection{clock: clock, radio: radio, cfg: cfg, hooks: hooks}
	dc.setupDoneFn = dc.setupDone
	dc.teardownDoneFn = dc.teardownDone
	dc.retryFn = dc.retry
	return dc
}

// State returns the current state.
func (dc *DataConnection) State() DcState { return dc.state }

// Attempt returns the current setup attempt number (0 when idle). Only
// tests read it: a hook to observe the state machine.
func (dc *DataConnection) Attempt() int { return dc.attempt }

func (dc *DataConnection) setState(s DcState) {
	if dc.state == s {
		return
	}
	from := dc.state
	dc.state = s
	if dc.hooks.OnStateChange != nil {
		dc.hooks.OnStateChange(from, s)
	}
}

// RequestSetup starts establishing the connection. It is an error to call
// it unless the connection is Inactive.
func (dc *DataConnection) RequestSetup() error {
	if dc.state != DcInactive {
		return fmt.Errorf("android: RequestSetup in state %v", dc.state)
	}
	dc.attempt = 0
	dc.beginAttempt()
	return nil
}

func (dc *DataConnection) beginAttempt() {
	dc.attempt++
	dc.setState(DcActivating)
	dc.radio.Setup(dc.generation, dc.setupDoneFn)
}

// setupDone handles the radio's reply to the setup request tagged tag.
func (dc *DataConnection) setupDone(tag uint64, out SetupOutcome) {
	if tag != dc.generation || dc.state != DcActivating {
		return // stale callback from a torn-down connection
	}
	if out.Success {
		dc.setState(DcActive)
		if dc.hooks.OnConnected != nil {
			dc.hooks.OnConnected()
		}
		return
	}
	// A Data_Setup_Error is reported to system services (not apps),
	// then a retry attempt is initiated (§2.1).
	if dc.hooks.OnSetupError != nil {
		dc.hooks.OnSetupError(out.Cause, dc.attempt)
	}
	if dc.attempt > len(dc.cfg.RetryDelays) {
		dc.setState(DcInactive)
		dc.attempt = 0
		if dc.hooks.OnSetupAbandoned != nil {
			dc.hooks.OnSetupAbandoned(out.Cause)
		}
		return
	}
	dc.setState(DcRetrying)
	dc.clock.ArmAfter(&dc.retryTimer, dc.cfg.RetryDelays[dc.attempt-1], dc.retryFn)
}

func (dc *DataConnection) retry() {
	if dc.state == DcRetrying {
		dc.beginAttempt()
	}
}

// Teardown disconnects an Active connection or cancels a pending setup.
func (dc *DataConnection) Teardown() {
	switch dc.state {
	case DcInactive, DcDisconnecting:
		return
	case DcActivating, DcRetrying:
		dc.abort()
		return
	}
	dc.setState(DcDisconnecting)
	dc.generation++
	dc.radio.Teardown(dc.teardownDoneFn)
}

func (dc *DataConnection) teardownDone() {
	if dc.state != DcDisconnecting {
		return
	}
	dc.setState(DcInactive)
	dc.attempt = 0
	if dc.hooks.OnDisconnected != nil {
		dc.hooks.OnDisconnected(false, telephony.CauseNone)
	}
}

// ConnectionLost signals that the network dropped an Active connection
// (e.g. SIGNAL_LOST). The machine returns to Inactive; re-establishment is
// the owner's decision.
func (dc *DataConnection) ConnectionLost(cause telephony.FailCause) {
	if dc.state != DcActive {
		return
	}
	dc.generation++
	dc.setState(DcInactive)
	dc.attempt = 0
	if dc.hooks.OnDisconnected != nil {
		dc.hooks.OnDisconnected(true, cause)
	}
}

func (dc *DataConnection) abort() {
	dc.generation++
	dc.retryTimer.Stop()
	dc.setState(DcInactive)
	dc.attempt = 0
}
