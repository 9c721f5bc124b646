package fleet

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// newTestActor builds one actor on a tiny private environment.
func newTestActor(t *testing.T, modelID int, seed int64) (*actor, *simclock.Scheduler, *[]failure.Event) {
	t.Helper()
	s := Scenario{Seed: seed, NumDevices: 1, Workers: 1}.withDefaults()
	network, err := simnet.Generate(simnet.DefaultDeployment(300), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	refMass := estimateClassMasses(network, s)
	clock := simclock.NewScheduler()
	var events []failure.Event
	shard := &shardState{refMass: refMass, sink: func(e failure.Event) { events = append(events, e) }}
	m, ok := device.ByID(modelID)
	if !ok {
		t.Fatalf("model %d", modelID)
	}
	r := rng.SplitIndexed(seed, "device", 0)
	a := newActor(1, m, clock, r, &s, network, shard, nil, newLaneScratch())
	return a, clock, &events
}

// planEpisode appends ep to the actor's plan and returns its index, for
// tests that dispatch episodes by hand through runPlanned.
func planEpisode(a *actor, ep plannedEpisode) int32 {
	a.planned = append(a.planned, ep)
	a.retries = append(a.retries, 0)
	return int32(len(a.planned) - 1)
}

func TestActorProducesContextfulEvents(t *testing.T) {
	// Model 28 has high prevalence; try a few seeds until a prone device
	// materializes (the draw is deterministic per seed).
	for seed := int64(0); seed < 30; seed++ {
		a, clock, events := newTestActor(t, 28, seed)
		if !a.intensity.Prone {
			continue
		}
		clock.Run(a.scen.Window + 2*time.Hour)
		if len(*events) == 0 {
			t.Fatalf("prone actor (E=%.1f) produced no events", a.intensity.ExpectedFailures)
		}
		for _, e := range *events {
			if e.DeviceID != 1 || e.ModelID != 28 {
				t.Fatalf("identity not stamped: %+v", e)
			}
			if e.Kind.IsDataFailure() && e.Cell.MCC == 0 {
				t.Fatalf("event without cell context: %+v", e)
			}
			if e.Cause.IsFalsePositive() {
				t.Fatalf("false positive leaked: %v", e.Cause)
			}
		}
		return
	}
	t.Skip("no prone device found in 30 seeds (statistically ~0.002 chance)")
}

func TestActorNonProneStaysQuiet(t *testing.T) {
	// Model 8 has 0.15% prevalence: almost every draw is non-prone.
	for seed := int64(0); seed < 10; seed++ {
		a, clock, events := newTestActor(t, 8, seed)
		if a.intensity.Prone {
			continue
		}
		clock.Run(a.scen.Window + 2*time.Hour)
		if len(*events) != 0 {
			t.Fatalf("non-prone actor recorded %d events", len(*events))
		}
		// Exposure accounting still ran (denominators need every device).
		var dwell float64
		for rat := 0; rat < numRATIdx; rat++ {
			for l := 0; l < int(telephony.NumSignalLevels); l++ {
				dwell += a.shard.dwell.Seconds[rat][l]
			}
		}
		if dwell <= 0 {
			t.Fatal("non-prone device accounted no dwell")
		}
		return
	}
	t.Fatal("every seed produced a prone device for the lowest-prevalence model")
}

func TestActorBusyCollisionRescheduling(t *testing.T) {
	a, clock, events := newTestActor(t, 28, 1)
	att := a.hazardTiltedAttachment()
	if att.BS == nil {
		t.Skip("no attachment available")
	}
	// Fire two stall episodes at the same instant: the second must retry
	// and both must eventually record.
	ep := plannedEpisode{kind: failure.DataStall, att: att, hasAtt: true}
	first, second := planEpisode(a, ep), planEpisode(a, ep)
	clock.At(clock.Now()+time.Second, func() {
		a.runPlanned(first)
		a.runPlanned(second)
	})
	clock.Run(6 * time.Hour)
	stalls := 0
	for _, e := range *events {
		if e.Kind == failure.DataStall {
			stalls++
		}
	}
	if stalls < 2 {
		t.Errorf("colliding episodes recorded %d stalls, want both", stalls)
	}
}

func TestActorSetupEpisodeRunsStateMachine(t *testing.T) {
	a, clock, events := newTestActor(t, 28, 1)
	att := a.hazardTiltedAttachment()
	if att.BS == nil {
		t.Skip("no attachment")
	}
	i := planEpisode(a, plannedEpisode{kind: failure.DataSetupError, att: att, hasAtt: true})
	clock.At(clock.Now()+time.Second, func() { a.runPlanned(i) })
	clock.Run(10 * time.Minute)
	if len(*events) != 1 {
		t.Fatalf("events = %d", len(*events))
	}
	e := (*events)[0]
	if e.Kind != failure.DataSetupError {
		t.Fatalf("kind = %v", e.Kind)
	}
	if e.OpsExecuted < 1 {
		t.Error("attempt count missing")
	}
	if e.Duration <= 0 {
		t.Error("no outage duration")
	}
	if a.busy {
		t.Error("actor stuck busy after episode")
	}
}

func TestActorKindWeightsRespectOOSProne(t *testing.T) {
	a, _, _ := newTestActor(t, 28, 1)
	a.intensity.OOSProne = false
	a.buildKindPick()
	r := rng.New(5)
	for i := 0; i < 5000; i++ {
		if a.sampleKind() == failure.OutOfService {
			t.Fatal("non-OOS-prone device sampled an OOS episode")
		}
		_ = r
	}
	a.intensity.OOSProne = true
	a.buildKindPick()
	oos := 0
	for i := 0; i < 5000; i++ {
		if a.sampleKind() == failure.OutOfService {
			oos++
		}
	}
	if oos == 0 {
		t.Fatal("OOS-prone device never sampled OOS")
	}
	// Concentrated mass: roughly KindWeights/proneFraction ≈ 0.09/0.22.
	frac := float64(oos) / 5000
	if frac < 0.2 || frac > 0.6 {
		t.Errorf("OOS share for prone device = %.2f", frac)
	}
}

func TestWindowFractionDualConnectivity(t *testing.T) {
	a, _, _ := newTestActor(t, 33, 1) // 5G model
	if got := a.windowFraction(telephony.RAT4G, telephony.RAT5G); got != 1 {
		t.Errorf("without dual connectivity fraction = %v", got)
	}
	a.dual.Enabled = true
	if got := a.windowFraction(telephony.RAT4G, telephony.RAT5G); got != 0.25 {
		t.Errorf("dual 4G→5G fraction = %v, want 0.25", got)
	}
	if got := a.windowFraction(telephony.RAT2G, telephony.RAT4G); got != 1 {
		t.Errorf("dual non-5G fraction = %v, want 1", got)
	}
}

func TestExtractMetricsEmptyResult(t *testing.T) {
	res := runFleet(t, Scenario{Seed: 1, NumDevices: 5, Workers: 1})
	m := ExtractMetrics("tiny", res)
	if m.Name != "tiny" {
		t.Error("name lost")
	}
	// A 5-device fleet may legitimately have zero events; metrics must
	// not NaN/panic either way.
	if m.Prevalence < 0 || m.Prevalence > 1 {
		t.Errorf("prevalence = %v", m.Prevalence)
	}
}
