// Stall-recovery walkthrough: watch one Data_Stall episode flow through
// the whole machinery — detector, prober, three-stage recovery engine —
// under vanilla Android's one-minute trigger and under the TIMP-optimized
// trigger; then fit the TIMP model to fleet data and re-derive the optimal
// probations the way §4.2 does.
//
//	go run ./examples/stallrecovery
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/android"
	"repro/internal/netprobe"
	"repro/internal/simclock"
)

// episode simulates one stall that would self-heal after autoFix, with a
// first-stage recovery op that always works, and returns how long the
// outage lasted under the given trigger.
func episode(trigger android.Trigger, autoFix time.Duration) (time.Duration, android.ResolvedBy) {
	clock := simclock.NewScheduler()
	host := netprobe.NewSimHost()

	var res android.Resolution
	exec := execFunc(func(op android.RecoveryOp, done func(bool)) {
		clock.After(time.Second, func() {
			host.SetCondition(netprobe.Healthy) // the cleanup works
			done(true)
		})
	})
	engine := android.NewRecoveryEngine(clock, trigger, exec, func(r android.Resolution) { res = r })

	detector := android.NewStallDetector(clock, android.DefaultStallDetectorConfig(), nil)
	detector.OnStall = func() { engine.Start() }

	// The stall begins: outbound TCP goes unanswered.
	host.SetCondition(netprobe.NetworkDown)
	detector.Start()
	detector.RecordTx(12)
	// Natural recovery, if the engine doesn't get there first: inbound
	// traffic resumes, which both clears the kernel statistic and tells
	// the engine the episode is over.
	clock.After(autoFix, func() {
		if host.ConditionNow() != netprobe.Healthy {
			host.SetCondition(netprobe.Healthy)
			detector.RecordRx(5)
			engine.NotifyResolved(android.ResolvedAuto)
		}
	})
	clock.Run(time.Hour)
	return res.Duration, res.By
}

type execFunc func(android.RecoveryOp, func(bool))

func (f execFunc) Execute(op android.RecoveryOp, done func(bool)) { f(op, done) }

func main() {
	log.SetFlags(0)

	fmt.Println("One stall that would naturally heal after 10 minutes:")
	for _, tc := range []struct {
		name    string
		trigger android.Trigger
	}{
		{"vanilla (60s probations)", android.DefaultFixedTrigger},
		{"TIMP (21s, 6s, 16s)", android.PaperTIMPTrigger},
	} {
		d, by := episode(tc.trigger, 10*time.Minute)
		fmt.Printf("  %-26s outage %v (resolved by %v)\n", tc.name, d, by)
	}
	fmt.Println("  (the TIMP trigger executes the cleanup ~39 s sooner)")

	fmt.Println("\nA stall that self-heals in 8 s never even escalates:")
	for _, trigger := range []android.Trigger{android.DefaultFixedTrigger, android.PaperTIMPTrigger} {
		d, by := episode(trigger, 8*time.Second)
		if by == android.ResolvedNone {
			fmt.Printf("  %-8s inbound traffic resumed before detection; no recovery needed\n", trigger.Name())
		} else {
			fmt.Printf("  %-8s outage %v (resolved by %v)\n", trigger.Name(), d, by)
		}
	}

	// --- Re-derive the optimal probations from fleet data ----------------
	fmt.Println("\nFitting TIMP to fleet-measured self-recovery times (§4.2):")
	m, err := cellrel.Study{Scenario: cellrel.Scenario{Seed: 5, NumDevices: 1500}}.Measure()
	if err != nil {
		log.Fatal(err)
	}
	opt, err := cellrel.OptimizeRecovery(m, 99)
	if err != nil {
		log.Fatal(err)
	}
	p := opt.Result.Probations
	fmt.Printf("  %d samples -> optimal probations %.1fs, %.1fs, %.1fs (paper: 21s, 6s, 16s)\n",
		opt.Samples, p[0], p[1], p[2])
	fmt.Printf("  expected recovery cost %.1fs vs %.1fs for the one-minute default (%.0f%% better)\n",
		opt.Result.Cost, opt.Result.DefaultCost, opt.Result.Improvement()*100)
}
