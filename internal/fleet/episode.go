package fleet

import (
	"time"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/geo"
	"repro/internal/netprobe"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// runPlanned executes planned episode i, one failure opportunity; it is
// scheduled via PostIdx. A device handles one episode at a time;
// collisions retry shortly after through the same index (a phone does not
// have two independent outages of the same data connection at once).
func (a *actor) runPlanned(i int32) {
	ep := &a.planned[i]
	if a.events >= a.scen.MaxEventsPerDevice {
		if ep.fault != nil {
			ep.fault.NoteDropped()
		}
		return
	}
	if a.busy {
		if a.retries[i] > 50 {
			// pathological pile-up; drop the opportunity
			if ep.fault != nil {
				ep.fault.NoteDropped()
			}
			return
		}
		a.retries[i]++
		a.clock.PostIdx(a.clock.Now()+time.Duration(30+a.r.Intn(60))*time.Second, a.runPlannedFn, i)
		return
	}
	// Attachment context: transition episodes pin the post-transition
	// camp; base episodes land on a hazard-tilted attachment (failures
	// concentrate where the radio environment is hostile).
	var att simnet.Attachment
	if ep.hasAtt {
		att = ep.att
	} else {
		att = a.hazardTiltedAttachment()
	}
	if att.BS == nil {
		// no serving BS anywhere; nothing to fail against
		if ep.fault != nil {
			ep.fault.NoteDropped()
		}
		return
	}
	a.att = att
	a.applyContext(att)
	// A failure implies the device camped here: exposure denominators
	// must include it or prevalence ratios for rare contexts would be
	// biased upward.
	a.accountDwell(att, 0)

	switch ep.kind {
	case failure.DataSetupError:
		a.runSetupEpisode(ep)
	case failure.DataStall:
		a.runStallEpisode(ep)
	case failure.OutOfService:
		a.runOOSEpisode(ep)
	case failure.SMSSendFail, failure.VoiceFailure:
		a.mon.OnLegacyFailure(ep.kind, telephony.CauseNetworkFailure)
		a.events++
	}
}

// hazardTiltedAttachment samples the failure's radio context from the
// device's dwell chain, weighted by dwell time × environmental hazard:
// failures concentrate where the device actually spends risky time, so
// per-context failure rates stay consistent with the dwell denominators
// the normalized-prevalence figures divide by.
func (a *actor) hazardTiltedAttachment() simnet.Attachment {
	if len(a.chainAtts) == 0 {
		// Degenerate chain (no service anywhere): draw a fresh context.
		region := geo.Region(regionPick.Draw(a.r))
		atts, opts := a.candidateOptions(a.r, region)
		return atts[a.policy.Select(nil, opts)]
	}
	total := 0.0
	for _, w := range a.chainWeights {
		total += w
	}
	u := a.r.Float64() * total
	acc := 0.0
	for i, w := range a.chainWeights {
		acc += w
		if u < acc {
			return a.chainAtts[i]
		}
	}
	return a.chainAtts[len(a.chainAtts)-1]
}

// --- Data_Setup_Error -------------------------------------------------

// runSetupEpisode drives the real data-connection state machine through a
// scripted sequence of radio failures, exactly as a phone would experience
// them; the monitoring service receives the per-attempt Data_Setup_Error
// notifications through the machine's hooks.
func (a *actor) runSetupEpisode(ep *plannedEpisode) {
	a.busy = true
	a.inSetup = true
	a.setupTransition, a.setupHasTransition = ep.transition, ep.hasTransition
	a.setupStart = a.clock.Now()
	a.setupAttempts = 0
	a.setupCause = telephony.CauseNone

	maxAttempts := len(android.DefaultDataConnectionConfig().RetryDelays) + 1
	attempts := a.cal.SampleSetupAttempts(a.r, maxAttempts)

	// The script buffer is lane scratch: the radio consumes it before the
	// episode concludes and the device runs one episode at a time.
	outcomes := a.scr.outcomes[:0]
	for i := 0; i < attempts; i++ {
		var cause telephony.FailCause
		switch {
		case ep.fp:
			cause = sampleFPCause(a.r)
		case ep.cause != telephony.CauseNone:
			// Setup-storm episodes carry the incident's cause mix: every
			// retry fails the same way a control-plane outage fails.
			cause = ep.cause
		default:
			cause = simnet.SampleSetupCause(a.r, a.att)
		}
		outcomes = append(outcomes, android.SetupOutcome{Success: false, Cause: cause})
	}
	outcomes = append(outcomes, android.SetupOutcome{Success: true})
	a.scr.outcomes = outcomes
	a.radio.script(outcomes)

	if a.dc.State() == android.DcActive {
		a.dc.ConnectionLost(telephony.CauseSignalLost)
	}
	if a.dc.State() != android.DcInactive {
		a.inSetup = false
		a.busy = false
		if ep.fault != nil {
			ep.fault.NoteDropped()
		}
		return
	}
	if ep.fault != nil {
		a.setupFault = ep.fault
		ep.fault.NoteInjected()
	}
	_ = a.dc.RequestSetup()
}

// finishSetupEpisode concludes the episode when the state machine either
// connects after retries or abandons.
func (a *actor) finishSetupEpisode(cause telephony.FailCause) {
	if !a.inSetup {
		return
	}
	a.inSetup = false
	a.busy = false
	attempts := a.setupAttempts
	trans, hasTrans := a.setupTransition, a.setupHasTransition
	a.setupHasTransition = false
	if a.setupFault != nil {
		// The episode concluded — connected after retries or abandoned —
		// either way the machine is back in a steady state.
		a.setupFault.NoteRecovered()
		a.setupFault = nil
	}
	if attempts == 0 {
		return // connected first try; not a failure episode
	}
	// Outage duration: the retry machinery's span plus the surrounding
	// no-service gap.
	dur := a.clock.Now() - a.setupStart
	dur += time.Duration(a.r.Exp(a.cal.SetupNoServiceGap) * float64(time.Second))
	a.events++
	a.mon.OnSetupEpisode(cause, attempts, dur, trans, hasTrans)
}

var fpCauses = []telephony.FailCause{
	telephony.CauseCongestion,
	telephony.CauseInsufficientResources,
	telephony.CauseVoiceCallPreemption,
	telephony.CauseBillingSuspension,
	telephony.CauseManualDetach,
	telephony.CauseRadioPowerOff,
}

var fpCausePick = rng.NewCategorical([]float64{0.40, 0.15, 0.15, 0.10, 0.15, 0.05})

func sampleFPCause(r *rng.Source) telephony.FailCause {
	return fpCauses[fpCausePick.Draw(r)]
}

// --- Data_Stall --------------------------------------------------------

// runStallEpisode injects a stall condition into the device's network
// stack and lets the full machinery react: the detector flags the stall
// from TCP counters, the monitor probes and measures, the recovery engine
// escalates through its stages, and the episode resolves by whichever of
// natural recovery, a recovery operation, or a user reset comes first.
func (a *actor) runStallEpisode(ep *plannedEpisode) {
	a.busy = true
	cond := netprobe.NetworkDown
	if ep.fp {
		cond = a.cal.SampleFPStallCondition(a.r)
	}
	neglect := 1.0
	if a.att.BS != nil {
		neglect = a.att.BS.Region.Profile().NeglectFactor
	}
	autoFix := a.cal.SampleStallAutoFix(a.r, neglect)
	if ep.fault != nil {
		a.stallFault = ep.fault
		ep.fault.NoteInjected()
		if ep.dur > 0 {
			// Pre-sampled and capped so the injected stall heals — and its
			// measurement concludes — inside the run's slack.
			autoFix = ep.dur
		}
	}

	a.stallTransition, a.stallHasTransition = ep.transition, ep.hasTransition
	a.stallAutoFix = autoFix
	a.host.SetCondition(cond)
	a.detector.Start()
	// The application keeps transmitting into the void: outbound TCP
	// segments with no inbound traffic, the kernel statistic Android's
	// detector watches.
	a.detector.RecordTx(12)

	a.clock.ArmAfter(&a.healTimer, autoFix, a.healFn)
	if ur := a.cal.SampleUserReset(a.r); ur > 0 {
		a.clock.ArmAfter(&a.resetTimer, ur, a.resetFn)
	}
}

// onStallDetected is the detector's callback: hand the episode to the
// monitoring service and start the recovery engine, as Android does.
func (a *actor) onStallDetected() {
	a.mon.OnStallDetected(a.stallTransition, a.stallHasTransition, a.stallAutoFix, a.endStallFn)
	a.engine.Start()
}

func (a *actor) autoHeal()  { a.resolveStall(android.ResolvedAuto) }
func (a *actor) userReset() { a.resolveStall(android.ResolvedUserReset) }

// resolveStall heals the underlying condition from natural recovery or a
// user reset; the prober observes health on its next round and concludes
// the measurement.
func (a *actor) resolveStall(by android.ResolvedBy) {
	if a.host.ConditionNow() == netprobe.Healthy {
		return
	}
	a.host.SetCondition(netprobe.Healthy)
	a.engine.NotifyResolved(by)
}

// endStall releases episode resources once the monitor concluded the
// episode (recorded or filtered as a false positive).
func (a *actor) endStall() {
	a.healTimer.Stop()
	a.resetTimer.Stop()
	a.detector.Stop()
	a.host.SetCondition(netprobe.Healthy)
	a.stallHasTransition = false
	a.stallAutoFix = 0
	if a.stallFault != nil {
		a.stallFault.NoteRecovered()
		a.stallFault = nil
	}
	a.busy = false
	a.events++
}

// --- Out_of_Service ----------------------------------------------------

// runOOSEpisode drops cellular registration through the service tracker;
// the tracker reports the episode when service returns and the monitor
// records it with the in-situ context.
func (a *actor) runOOSEpisode(ep *plannedEpisode) {
	a.busy = true
	a.oosTransition, a.oosHasTransition = ep.transition, ep.hasTransition
	if ep.fault != nil {
		a.oosFault = ep.fault
		ep.fault.NoteInjected()
		a.service.LoseService(ep.dur, a.fr.Bool(0.15))
		return
	}
	dur := a.cal.SampleOOSDuration(a.r)
	a.service.LoseService(dur, a.r.Bool(0.15))
}
