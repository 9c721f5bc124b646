package android

import (
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/telephony"
)

// trackerEnv builds a tracker whose per-APN radios are scripted.
func trackerEnv(t *testing.T, scripts map[telephony.APN][]SetupOutcome) (*simclock.Scheduler, *DcTracker, *trackerLog) {
	t.Helper()
	clock := simclock.NewScheduler()
	log := &trackerLog{}
	factory := func(apn telephony.APN) Radio {
		return &scriptRadio{clock: clock, latency: 100 * time.Millisecond, outcomes: scripts[apn]}
	}
	tr := NewDcTracker(clock, factory, DefaultDataConnectionConfig(), TrackerHooks{
		OnStateChange: func(apn telephony.APN, from, to DcState) {
			log.transitions = append(log.transitions, apn)
		},
		OnSetupError: func(apn telephony.APN, cause telephony.FailCause, attempt int) {
			log.errors = append(log.errors, apn)
		},
		OnConnected: func(apn telephony.APN) { log.connected = append(log.connected, apn) },
		OnAbandoned: func(apn telephony.APN, cause telephony.FailCause) { log.abandoned = append(log.abandoned, apn) },
	})
	return clock, tr, log
}

type trackerLog struct {
	transitions []telephony.APN
	errors      []telephony.APN
	connected   []telephony.APN
	abandoned   []telephony.APN
}

func TestDcTrackerMultipleAPNs(t *testing.T) {
	fail := SetupOutcome{Success: false, Cause: telephony.CausePPPTimeout}
	clock, tr, log := trackerEnv(t, map[telephony.APN][]SetupOutcome{
		telephony.APNDefault: {},                                         // connects first try
		telephony.APNIMS:     {fail},                                     // one retry
		telephony.APNMMS:     {fail, fail, fail, fail, fail, fail, fail}, // abandons
	})
	for _, apn := range []telephony.APN{telephony.APNDefault, telephony.APNIMS, telephony.APNMMS} {
		if err := tr.EnableAPN(apn); err != nil {
			t.Fatal(err)
		}
	}
	clock.RunAll()
	if tr.State(telephony.APNDefault) != DcActive || tr.State(telephony.APNIMS) != DcActive {
		t.Fatalf("states: default=%v ims=%v", tr.State(telephony.APNDefault), tr.State(telephony.APNIMS))
	}
	if tr.State(telephony.APNMMS) != DcInactive {
		t.Fatalf("mms state = %v, want Inactive after abandoning", tr.State(telephony.APNMMS))
	}
	active := tr.ActiveAPNs()
	if len(active) != 2 || active[0] != telephony.APNDefault || active[1] != telephony.APNIMS {
		t.Errorf("ActiveAPNs = %v", active)
	}
	if len(log.abandoned) != 1 || log.abandoned[0] != telephony.APNMMS {
		t.Errorf("abandoned = %v", log.abandoned)
	}
	if len(log.connected) != 2 {
		t.Errorf("connected = %v", log.connected)
	}
	// IMS failed once, MMS six+ times; default never.
	imsErrs, mmsErrs := 0, 0
	for _, apn := range log.errors {
		switch apn {
		case telephony.APNIMS:
			imsErrs++
		case telephony.APNMMS:
			mmsErrs++
		case telephony.APNDefault:
			t.Error("default APN reported a setup error")
		}
	}
	if imsErrs != 1 || mmsErrs != 6 {
		t.Errorf("errors ims=%d mms=%d", imsErrs, mmsErrs)
	}
}

func TestDcTrackerEnableWhileBusy(t *testing.T) {
	clock, tr, _ := trackerEnv(t, nil)
	if err := tr.EnableAPN(telephony.APNDefault); err != nil {
		t.Fatal(err)
	}
	if err := tr.EnableAPN(telephony.APNDefault); err == nil {
		t.Error("double enable should error")
	}
	clock.RunAll()
	if err := tr.EnableAPN(telephony.APNDefault); err == nil {
		t.Error("enable while Active should error")
	}
	// Disable then re-enable works.
	tr.DisableAPN(telephony.APNDefault)
	clock.RunAll()
	if err := tr.EnableAPN(telephony.APNDefault); err != nil {
		t.Errorf("re-enable after disable: %v", err)
	}
	clock.RunAll()
	if !tr.AnyActive() {
		t.Error("not active after re-enable")
	}
}

func TestDcTrackerLoseAll(t *testing.T) {
	clock, tr, _ := trackerEnv(t, nil)
	tr.EnableAPN(telephony.APNDefault)
	tr.EnableAPN(telephony.APNIMS)
	clock.RunAll()
	if len(tr.ActiveAPNs()) != 2 {
		t.Fatal("setup failed")
	}
	tr.LoseAll(telephony.CauseSignalLost)
	if tr.AnyActive() {
		t.Error("connections survived radio loss")
	}
	for _, apn := range []telephony.APN{telephony.APNDefault, telephony.APNIMS} {
		if tr.State(apn) != DcInactive {
			t.Errorf("%v state = %v", apn, tr.State(apn))
		}
	}
}

func TestDcTrackerTeardownAll(t *testing.T) {
	clock, tr, _ := trackerEnv(t, nil)
	tr.EnableAPN(telephony.APNDefault)
	tr.EnableAPN(telephony.APNSUPL)
	clock.RunAll()
	tr.TeardownAll()
	clock.RunAll()
	if tr.AnyActive() {
		t.Error("connections survived TeardownAll")
	}
}

func TestDcTrackerUnknownAPN(t *testing.T) {
	_, tr, _ := trackerEnv(t, nil)
	if tr.Connection(telephony.APNSUPL) != nil {
		t.Error("unknown APN should have nil connection")
	}
	if tr.State(telephony.APNSUPL) != DcInactive {
		t.Error("unknown APN state should be Inactive")
	}
	tr.DisableAPN(telephony.APNSUPL) // no-op, must not panic
}

func TestDcTrackerNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil factory did not panic")
		}
	}()
	NewDcTracker(simclock.NewScheduler(), nil, DefaultDataConnectionConfig(), TrackerHooks{})
}
