package monitor

import (
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/geo"
	"repro/internal/netprobe"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

type capture struct {
	events []failure.Event
}

func (c *capture) sink(e failure.Event) { c.events = append(c.events, e) }

func newService(t *testing.T) (*simclock.Scheduler, *netprobe.SimHost, *Service, *capture) {
	t.Helper()
	clock := simclock.NewScheduler()
	host := netprobe.NewSimHost()
	cap := &capture{}
	s := New(clock, DefaultConfig(), 77, 12, 10, true, host, cap.sink)
	s.SetContext(InSitu{
		ISP:    simnet.ISPB,
		Cell:   telephony.CellIdentity{MCC: 460, MNC: 1, LAC: 2, CID: 3},
		Region: geo.Urban,
		RAT:    telephony.RAT4G,
		Level:  telephony.Level3,
		APN:    telephony.APNDefault,
	})
	return clock, host, s, cap
}

func TestSetupEpisodeRecordedWithInSituContext(t *testing.T) {
	clock, _, s, cap := newService(t)
	clock.At(90*time.Second, func() {
		s.OnSetupEpisode(telephony.CauseInvalidEMMState, 3, 7*time.Second, failure.TransitionInfo{}, false)
	})
	clock.RunAll()
	if len(cap.events) != 1 {
		t.Fatalf("events = %d, want 1", len(cap.events))
	}
	e := cap.events[0]
	if e.Kind != failure.DataSetupError || e.Cause != telephony.CauseInvalidEMMState {
		t.Errorf("event = %+v", e)
	}
	if e.DeviceID != 77 || e.ModelID != 12 || e.AndroidVersion != 10 || !e.FiveGCapable {
		t.Errorf("device identity not stamped: %+v", e)
	}
	if e.ISP != simnet.ISPB || e.RAT != telephony.RAT4G || e.Level != telephony.Level3 || e.Region != geo.Urban {
		t.Errorf("in-situ context not stamped: %+v", e)
	}
	if e.Start != 90*time.Second || e.Duration != 7*time.Second {
		t.Errorf("timing wrong: start %v duration %v", e.Start, e.Duration)
	}
	if e.APN != telephony.APNDefault {
		t.Errorf("APN = %q", e.APN)
	}
}

func TestSetupFalsePositivesFiltered(t *testing.T) {
	clock, _, s, cap := newService(t)
	fps := []telephony.FailCause{
		telephony.CauseCongestion,          // BS overload
		telephony.CauseVoiceCallPreemption, // incoming voice call
		telephony.CauseBillingSuspension,   // insufficient balance
		telephony.CauseManualDetach,        // manual disconnection
	}
	for _, c := range fps {
		s.OnSetupEpisode(c, 1, time.Second, failure.TransitionInfo{}, false)
	}
	clock.RunAll()
	if len(cap.events) != 0 {
		t.Fatalf("false positives leaked: %d events", len(cap.events))
	}
	st := s.Stats()
	if st.FilteredSetup != 4 {
		t.Errorf("FilteredSetup = %d, want 4", st.FilteredSetup)
	}
	if st.ByFPClass[failure.FPBSOverload] != 1 || st.ByFPClass[failure.FPVoiceCall] != 1 ||
		st.ByFPClass[failure.FPBalance] != 1 || st.ByFPClass[failure.FPManualDisconnect] != 1 {
		t.Errorf("FP class histogram = %v", st.ByFPClass)
	}
}

func TestStallMeasurementEndToEnd(t *testing.T) {
	clock, host, s, cap := newService(t)
	trans := failure.TransitionInfo{FromRAT: telephony.RAT4G, ToRAT: telephony.RAT5G,
		FromLevel: telephony.Level4, ToLevel: telephony.Level0}
	clock.At(10*time.Second, func() {
		host.SetCondition(netprobe.NetworkDown)
		s.OnStallDetected(trans, true, 42*time.Second, nil)
	})
	clock.At(52*time.Second, func() { host.SetCondition(netprobe.Healthy) })
	clock.RunAll()
	if len(cap.events) != 1 {
		t.Fatalf("events = %d, want 1", len(cap.events))
	}
	e := cap.events[0]
	if e.Kind != failure.DataStall {
		t.Fatalf("kind = %v", e.Kind)
	}
	if e.Start != 10*time.Second {
		t.Errorf("stall Start = %v, want detection time", e.Start)
	}
	if e.Duration < 37*time.Second || e.Duration > 47*time.Second {
		t.Errorf("measured %v for a 42 s stall (≤5 s error expected)", e.Duration)
	}
	if e.AutoFixTime != 42*time.Second {
		t.Errorf("AutoFixTime = %v", e.AutoFixTime)
	}
	if !e.HasTransition || e.Transition != trans {
		t.Error("transition context lost")
	}
	if e.ResolvedBy != android.ResolvedAuto {
		t.Errorf("ResolvedBy = %v, want auto default", e.ResolvedBy)
	}
	if s.Stats().StallsMeasured != 1 {
		t.Errorf("StallsMeasured = %d", s.Stats().StallsMeasured)
	}
}

func TestStallSystemSideFalsePositiveFiltered(t *testing.T) {
	clock, host, s, cap := newService(t)
	host.SetCondition(netprobe.ModemDriverFailure)
	s.OnStallDetected(failure.TransitionInfo{}, false, 0, nil)
	clock.RunAll()
	if len(cap.events) != 0 {
		t.Fatal("system-side stall recorded as failure")
	}
	st := s.Stats()
	if st.FilteredStalls != 1 || st.ByFPClass[failure.FPSystemSide] != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStallDNSFalsePositiveFiltered(t *testing.T) {
	clock, host, s, cap := newService(t)
	host.SetCondition(netprobe.DNSUnavailable)
	s.OnStallDetected(failure.TransitionInfo{}, false, 0, nil)
	clock.RunAll()
	if len(cap.events) != 0 {
		t.Fatal("DNS-side stall recorded as failure")
	}
	if s.Stats().ByFPClass[failure.FPDNSOnly] != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestStallResolutionFolding(t *testing.T) {
	clock, host, s, cap := newService(t)
	host.SetCondition(netprobe.NetworkDown)
	s.OnStallDetected(failure.TransitionInfo{}, false, 0, nil)
	clock.At(20*time.Second, func() {
		// The recovery engine's first op fixed it.
		s.NoteStallResolution(android.Resolution{By: android.ResolvedOp1, OpsExecuted: 1, Duration: 20 * time.Second})
		host.SetCondition(netprobe.Healthy)
	})
	clock.RunAll()
	if len(cap.events) != 1 {
		t.Fatalf("events = %d", len(cap.events))
	}
	e := cap.events[0]
	if e.ResolvedBy != android.ResolvedOp1 || e.OpsExecuted != 1 {
		t.Errorf("resolution not folded: %+v", e)
	}
	// A second stall must start from a clean slate.
	host.SetCondition(netprobe.NetworkDown)
	s.OnStallDetected(failure.TransitionInfo{}, false, 0, nil)
	clock.After(8*time.Second, func() { host.SetCondition(netprobe.Healthy) })
	clock.RunAll()
	if got := cap.events[1].ResolvedBy; got != android.ResolvedAuto {
		t.Errorf("stale resolution leaked into next episode: %v", got)
	}
}

func TestBindRecoveryClearsStateOnEpisodeEnd(t *testing.T) {
	clock, host, s, cap := newService(t)
	exec := fakeExec{clock: clock}
	var resolutions []android.Resolution
	engine := android.NewRecoveryEngine(clock, android.DefaultFixedTrigger, exec,
		func(r android.Resolution) { resolutions = append(resolutions, r) })
	det := android.NewStallDetector(clock, android.DefaultStallDetectorConfig(), nil)
	det.Start()
	s.BindRecovery(engine, det)

	host.SetCondition(netprobe.NetworkDown)
	s.OnStallDetected(failure.TransitionInfo{}, false, 9*time.Second, nil)
	engine.Start()
	clock.At(9*time.Second, func() { host.SetCondition(netprobe.Healthy) })
	clock.Run(30 * time.Second)
	if engine.Active() {
		t.Error("engine not notified when prober observed recovery")
	}
	if len(cap.events) != 1 {
		t.Fatalf("events = %d", len(cap.events))
	}
	if len(resolutions) != 1 {
		t.Fatalf("engine resolutions = %d", len(resolutions))
	}
}

type fakeExec struct{ clock *simclock.Scheduler }

func (f fakeExec) Execute(op android.RecoveryOp, done func(bool)) {
	f.clock.After(time.Second, func() { done(false) })
}

func TestOverheadAccounting(t *testing.T) {
	clock, host, s, _ := newService(t)
	for i := 0; i < 100; i++ {
		s.OnSetupEpisode(telephony.CauseSignalLost, 1, 10*time.Second, failure.TransitionInfo{}, false)
	}
	host.SetCondition(netprobe.NetworkDown)
	s.OnStallDetected(failure.TransitionInfo{}, false, 0, nil)
	clock.At(30*time.Second, func() { host.SetCondition(netprobe.Healthy) })
	clock.RunAll()
	o := s.Overhead()
	if o.StorageBytes != 101*64 {
		t.Errorf("StorageBytes = %d", o.StorageBytes)
	}
	if o.NetworkBytes == 0 {
		t.Error("probe traffic not accounted")
	}
	if o.MemoryPeakBytes != 101*96 {
		t.Errorf("MemoryPeakBytes = %d, want 96 per recorded event", o.MemoryPeakBytes)
	}
	util := o.CPUUtilization()
	if util <= 0 || util >= 0.02 {
		t.Errorf("CPU utilization = %.4f, want (0, 2%%) per the paper budget", util)
	}
}

func TestCPUUtilizationEdgeCases(t *testing.T) {
	if (Overhead{}).CPUUtilization() != 0 {
		t.Error("zero failure time should yield 0 utilization")
	}
	o := Overhead{CPUBusy: 2 * time.Second, FailureTime: time.Second}
	if o.CPUUtilization() != 1 {
		t.Error("utilization should clamp at 1")
	}
}

func TestLegacyFailures(t *testing.T) {
	clock, _, s, cap := newService(t)
	s.OnLegacyFailure(failure.SMSSendFail, telephony.CauseNetworkFailure)
	s.OnLegacyFailure(failure.VoiceFailure, telephony.CauseNetworkFailure)
	s.OnLegacyFailure(failure.DataStall, telephony.CauseNetworkFailure) // wrong kind: ignored
	clock.RunAll()
	if len(cap.events) != 2 {
		t.Fatalf("events = %d, want 2", len(cap.events))
	}
	if cap.events[0].Kind != failure.SMSSendFail || cap.events[1].Kind != failure.VoiceFailure {
		t.Errorf("kinds = %v, %v", cap.events[0].Kind, cap.events[1].Kind)
	}
}

func TestOutOfServiceRecorded(t *testing.T) {
	clock, _, s, cap := newService(t)
	s.OnOutOfService(45*time.Second, failure.TransitionInfo{}, false)
	clock.RunAll()
	if len(cap.events) != 1 || cap.events[0].Kind != failure.OutOfService {
		t.Fatalf("events = %+v", cap.events)
	}
	if cap.events[0].Duration != 45*time.Second {
		t.Errorf("duration = %v", cap.events[0].Duration)
	}
}

func TestDoubleStallDetectionIgnored(t *testing.T) {
	clock, host, s, cap := newService(t)
	host.SetCondition(netprobe.NetworkDown)
	s.OnStallDetected(failure.TransitionInfo{}, false, 0, nil)
	s.OnStallDetected(failure.TransitionInfo{}, false, 0, nil) // duplicate while active: ignored
	clock.At(8*time.Second, func() { host.SetCondition(netprobe.Healthy) })
	clock.RunAll()
	if len(cap.events) != 1 {
		t.Fatalf("events = %d, want 1", len(cap.events))
	}
}

func TestAbortStall(t *testing.T) {
	clock, host, s, cap := newService(t)
	host.SetCondition(netprobe.NetworkDown)
	s.OnStallDetected(failure.TransitionInfo{}, false, 0, nil)
	clock.At(7*time.Second, func() { s.AbortStall() })
	clock.Run(100 * time.Second)
	if len(cap.events) != 0 {
		t.Fatal("aborted stall produced an event")
	}
	if s.StallActive() {
		t.Error("stall still active after abort")
	}
}
