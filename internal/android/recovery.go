package android

import (
	"fmt"
	"time"

	"repro/internal/simclock"
)

// RecoveryOp identifies one of Android's three progressive Data_Stall
// recovery operations.
type RecoveryOp int

// Recovery operations, in escalation order (§3.2): light (cleaning up and
// restarting the current connection), moderate (re-registering into the
// network), heavy (restarting the radio component).
const (
	OpCleanupConnection RecoveryOp = iota + 1
	OpReregister
	OpRestartRadio

	NumRecoveryOps = 3
)

func (op RecoveryOp) String() string {
	switch op {
	case OpCleanupConnection:
		return "cleanup-connection"
	case OpReregister:
		return "re-register"
	case OpRestartRadio:
		return "restart-radio"
	default:
		return fmt.Sprintf("op-%d", int(op))
	}
}

// Trigger supplies the probation durations Pro_0..Pro_2: how long the
// engine passively watches for self-recovery before entering each stage.
type Trigger interface {
	Name() string
	// Probation returns Pro_i, the wait before executing operation i+1;
	// stage is 0-based (0, 1, 2).
	Probation(stage int) time.Duration
}

// FixedTrigger is vanilla Android's trigger: one minute before every stage.
type FixedTrigger time.Duration

// Name implements Trigger.
func (f FixedTrigger) Name() string { return "fixed" }

// Probation implements Trigger.
func (f FixedTrigger) Probation(int) time.Duration { return time.Duration(f) }

// DefaultFixedTrigger is Android's one-minute probation.
const DefaultFixedTrigger = FixedTrigger(time.Minute)

// ProfileTrigger holds per-stage probations; the TIMP optimization produces
// one (the paper's optimum is 21 s, 6 s, 16 s).
type ProfileTrigger [NumRecoveryOps]time.Duration

// Name implements Trigger.
func (p ProfileTrigger) Name() string { return "timp" }

// Probation implements Trigger.
func (p ProfileTrigger) Probation(stage int) time.Duration {
	if stage < 0 || stage >= NumRecoveryOps {
		return p[NumRecoveryOps-1]
	}
	return p[stage]
}

// PaperTIMPTrigger is the probation profile the paper deployed.
var PaperTIMPTrigger = ProfileTrigger{21 * time.Second, 6 * time.Second, 16 * time.Second}

// OpExecutor carries out a recovery operation. The fleet simulator's
// executor takes O_i of virtual time and succeeds with the operation's
// empirical fix rate (75% for the first-stage cleanup, per §3.2).
type OpExecutor interface {
	// Execute runs op and calls done(fixed) once, on the simulation clock,
	// after the operation's execution overhead has elapsed.
	Execute(op RecoveryOp, done func(fixed bool))
}

// ResolvedBy records what ended a Data_Stall episode.
type ResolvedBy uint8

// Resolution sources.
const (
	ResolvedNone      ResolvedBy = iota
	ResolvedAuto                 // self-recovered during a probation (Case-1 of the TIMP model)
	ResolvedOp1                  // fixed by cleanup
	ResolvedOp2                  // fixed by re-registration
	ResolvedOp3                  // fixed by radio restart
	ResolvedUserReset            // the user manually reset the data connection (~30 s tolerance)
	ResolvedGiveUp               // all stages exhausted; waited for eventual network recovery
)

func (r ResolvedBy) String() string {
	switch r {
	case ResolvedAuto:
		return "auto"
	case ResolvedOp1:
		return "op1-cleanup"
	case ResolvedOp2:
		return "op2-reregister"
	case ResolvedOp3:
		return "op3-radio-restart"
	case ResolvedUserReset:
		return "user-reset"
	case ResolvedGiveUp:
		return "gave-up"
	default:
		return "none"
	}
}

// Resolution summarizes a completed recovery episode.
type Resolution struct {
	// Duration is the stall's total duration from detection to resolution.
	Duration time.Duration
	// By is the resolution source.
	By ResolvedBy
	// OpsExecuted counts recovery operations run (successful or not).
	OpsExecuted int
}

// RecoveryEngine drives Android's three-stage progressive Data_Stall
// recovery as the state process of Figure 18: S0 (stall detected) →
// S1/S2/S3 (operations) → Se (resolved). Probation timing is delegated to
// a Trigger, which is exactly the knob the paper's TIMP enhancement turns.
type RecoveryEngine struct {
	clock   *simclock.Scheduler
	trigger Trigger
	exec    OpExecutor
	// OnResolved fires once per episode.
	OnResolved func(Resolution)

	active    bool
	startedAt simclock.Time
	stage     int // next op index (0-based); 0 means in S0 probation
	ops       int
	timer     simclock.Timer
	executing bool

	// probationFn and opDoneFn are the timer and executor callbacks, bound
	// once so that an episode schedules without allocating.
	probationFn func()
	opDoneFn    func(fixed bool)
}

// NewRecoveryEngine builds an engine. trigger and exec must be non-nil.
func NewRecoveryEngine(clock *simclock.Scheduler, trigger Trigger, exec OpExecutor, onResolved func(Resolution)) *RecoveryEngine {
	if clock == nil || trigger == nil || exec == nil {
		panic("android: nil recovery engine dependency")
	}
	e := &RecoveryEngine{clock: clock, trigger: trigger, exec: exec, OnResolved: onResolved}
	e.probationFn = e.probationOver
	e.opDoneFn = e.opDone
	return e
}

// Active reports whether an episode is in progress.
func (e *RecoveryEngine) Active() bool { return e.active }

// Trigger returns the engine's probation trigger.
func (e *RecoveryEngine) Trigger() Trigger { return e.trigger }

// Start begins an episode at stall-detection time. Starting while active
// is ignored (detector reports each episode once).
func (e *RecoveryEngine) Start() {
	if e.active {
		return
	}
	e.active = true
	e.startedAt = e.clock.Now()
	e.stage = 0
	e.ops = 0
	e.executing = false
	e.armProbation()
}

// NotifyResolved signals external resolution: the device self-recovered
// (inbound traffic resumed) or the user manually reset the connection.
func (e *RecoveryEngine) NotifyResolved(by ResolvedBy) {
	if !e.active {
		return
	}
	e.finish(by)
}

func (e *RecoveryEngine) armProbation() {
	e.clock.ArmAfter(&e.timer, e.trigger.Probation(e.stage), e.probationFn)
}

// probationOver runs the stage's operation once its probation expires.
func (e *RecoveryEngine) probationOver() {
	if !e.active || e.executing {
		return
	}
	op := RecoveryOp(e.stage + 1)
	e.ops++
	e.executing = true
	e.exec.Execute(op, e.opDoneFn)
}

// opDone is the executor's report on the operation in flight.
func (e *RecoveryEngine) opDone(fixed bool) {
	if !e.active {
		return
	}
	e.executing = false
	if fixed {
		e.finish(ResolvedOp1 + ResolvedBy(e.stage))
		return
	}
	e.stage++
	if e.stage >= NumRecoveryOps {
		// All stages exhausted; remain active until NotifyResolved.
		return
	}
	e.armProbation()
}

func (e *RecoveryEngine) finish(by ResolvedBy) {
	e.timer.Stop()
	res := Resolution{
		Duration:    e.clock.Now() - e.startedAt,
		By:          by,
		OpsExecuted: e.ops,
	}
	e.active = false
	e.executing = false
	if by == ResolvedNone && e.stage >= NumRecoveryOps {
		res.By = ResolvedGiveUp
	}
	if e.OnResolved != nil {
		e.OnResolved(res)
	}
}
