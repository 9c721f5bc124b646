package android

import (
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/telephony"
)

func newTracker(t *testing.T) (*simclock.Scheduler, *ServiceTracker, *[]time.Duration, *[][2]telephony.ServiceState) {
	t.Helper()
	clock := simclock.NewScheduler()
	var outages []time.Duration
	var transitions [][2]telephony.ServiceState
	tr := NewServiceTracker(clock, ServiceHooks{
		OnStateChange: func(from, to telephony.ServiceState) {
			transitions = append(transitions, [2]telephony.ServiceState{from, to})
		},
		OnOutOfServiceEnd: func(d time.Duration) { outages = append(outages, d) },
	})
	return clock, tr, &outages, &transitions
}

func TestServiceTrackerAutoRecovery(t *testing.T) {
	clock, tr, outages, _ := newTracker(t)
	if tr.State() != telephony.StateInService {
		t.Fatal("should start in service")
	}
	clock.At(time.Minute, func() { tr.LoseService(45*time.Second, false) })
	clock.RunAll()
	if tr.State() != telephony.StateInService {
		t.Fatal("service did not auto-recover")
	}
	if len(*outages) != 1 || (*outages)[0] != 45*time.Second {
		t.Errorf("outages = %v, want one 45s episode", *outages)
	}
}

func TestServiceTrackerManualRecovery(t *testing.T) {
	clock, tr, outages, _ := newTracker(t)
	clock.At(time.Second, func() { tr.LoseService(0, false) })
	clock.At(31*time.Second, func() { tr.RegainService() })
	clock.RunAll()
	if len(*outages) != 1 || (*outages)[0] != 30*time.Second {
		t.Errorf("outages = %v, want one 30s episode", *outages)
	}
}

func TestServiceTrackerEmergencyOnlyCountsAsOutage(t *testing.T) {
	clock, tr, outages, _ := newTracker(t)
	clock.At(time.Second, func() { tr.LoseService(10*time.Second, true) })
	clock.Run(2 * time.Second)
	if tr.State() != telephony.StateEmergencyOnly {
		t.Fatalf("state = %v", tr.State())
	}
	clock.RunAll()
	if len(*outages) != 1 || (*outages)[0] != 10*time.Second {
		t.Errorf("outages = %v", *outages)
	}
}

func TestServiceTrackerRepeatedLoseExtends(t *testing.T) {
	clock, tr, outages, _ := newTracker(t)
	clock.At(time.Second, func() { tr.LoseService(10*time.Second, false) })
	// A second loss report at t=5s extends the outage; the episode is one.
	clock.At(5*time.Second, func() { tr.LoseService(20*time.Second, false) })
	clock.RunAll()
	if len(*outages) != 1 {
		t.Fatalf("outages = %v, want a single merged episode", *outages)
	}
	if (*outages)[0] != 24*time.Second {
		t.Errorf("merged outage = %v, want 24s (1s..25s)", (*outages)[0])
	}
}

func TestServiceTrackerTransitionsObserved(t *testing.T) {
	clock, tr, _, transitions := newTracker(t)
	clock.At(time.Second, func() { tr.LoseService(2*time.Second, false) })
	clock.RunAll()
	want := [][2]telephony.ServiceState{
		{telephony.StateInService, telephony.StateOutOfService},
		{telephony.StateOutOfService, telephony.StateInService},
	}
	if len(*transitions) != len(want) {
		t.Fatalf("transitions = %v", *transitions)
	}
	for i := range want {
		if (*transitions)[i] != want[i] {
			t.Errorf("transition %d = %v, want %v", i, (*transitions)[i], want[i])
		}
	}
	_ = tr
}

func TestServiceTrackerNilClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil clock did not panic")
		}
	}()
	NewServiceTracker(nil, ServiceHooks{})
}
