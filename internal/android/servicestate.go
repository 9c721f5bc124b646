package android

import (
	"time"

	"repro/internal/simclock"
	"repro/internal/telephony"
)

// ServiceHooks receives service-state events. Nil fields are skipped.
type ServiceHooks struct {
	// OnStateChange fires on every registration-state transition.
	OnStateChange func(from, to telephony.ServiceState)
	// OnOutOfServiceEnd fires when service returns, with the outage
	// duration — the Out_of_Service episode the monitoring service
	// records.
	OnOutOfServiceEnd func(duration time.Duration)
}

// ServiceTracker mirrors Android's ServiceStateTracker: it maintains the
// device's registration state and reports Out_of_Service episodes. Vanilla
// Android exposes the Out_of_Service checker to apps (§2.1); the episode
// timing, however, needs the system-level hooks this tracker provides.
type ServiceTracker struct {
	clock *simclock.Scheduler
	hooks ServiceHooks

	state      telephony.ServiceState
	oosStart   simclock.Time
	recoverTmr simclock.Timer
	regainFn   func()
}

// NewServiceTracker starts in-service.
func NewServiceTracker(clock *simclock.Scheduler, hooks ServiceHooks) *ServiceTracker {
	if clock == nil {
		panic("android: nil clock")
	}
	t := &ServiceTracker{clock: clock, hooks: hooks, state: telephony.StateInService}
	t.regainFn = t.RegainService
	return t
}

// State returns the current registration state.
func (t *ServiceTracker) State() telephony.ServiceState { return t.state }

func (t *ServiceTracker) setState(s telephony.ServiceState) {
	if t.state == s {
		return
	}
	from := t.state
	t.state = s
	if t.hooks.OnStateChange != nil {
		t.hooks.OnStateChange(from, s)
	}
	switch {
	case s == telephony.StateOutOfService || s == telephony.StateEmergencyOnly:
		if from == telephony.StateInService {
			t.oosStart = t.clock.Now()
		}
	case s == telephony.StateInService && (from == telephony.StateOutOfService || from == telephony.StateEmergencyOnly):
		if t.hooks.OnOutOfServiceEnd != nil {
			t.hooks.OnOutOfServiceEnd(t.clock.Now() - t.oosStart)
		}
	}
}

// LoseService drops registration; if expectedOutage is positive, service
// returns automatically after it (the network side healing). A zero
// expectedOutage leaves the device out of service until RegainService.
func (t *ServiceTracker) LoseService(expectedOutage time.Duration, emergencyOnly bool) {
	target := telephony.StateOutOfService
	if emergencyOnly {
		target = telephony.StateEmergencyOnly
	}
	t.setState(target)
	t.recoverTmr.Stop()
	if expectedOutage > 0 {
		t.clock.ArmAfter(&t.recoverTmr, expectedOutage, t.regainFn)
	}
}

// RegainService restores registration (no-op when already in service).
func (t *ServiceTracker) RegainService() {
	t.recoverTmr.Stop()
	t.setState(telephony.StateInService)
}
