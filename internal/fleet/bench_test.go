package fleet

import (
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// benchScenario builds the standard fleet-benchmark configuration: a fixed
// seed, compressed virtual time, and the default four workers. The window
// shrinks as the fleet grows so every tier finishes in benchmarkable time
// while still exercising months-equivalent event volume in aggregate.
func benchScenario(devices int, window time.Duration) Scenario {
	return Scenario{
		Seed:       1234,
		NumDevices: devices,
		Workers:    4,
		Window:     window,
	}
}

// runBench executes one scenario under the benchmark timer and reports
// device- and event-throughput metrics, and heap allocations per recorded
// event (the whole of Run: its one-off set-up included).
func runBench(b *testing.B, s Scenario) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Dataset.Len() == 0 && s.UploadAddr == "" {
			b.Fatal("benchmark run produced no events")
		}
		events += res.Dataset.Len()
		b.ReportMetric(float64(res.Dataset.Len()), "events/op")
	}
	runtime.ReadMemStats(&after)
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(s.NumDevices)*float64(b.N)/elapsed, "devices/s")
		b.ReportMetric(float64(events)/elapsed, "events/s")
	}
	if events > 0 {
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
	}
}

// BenchmarkFleet is the fleet-runner benchmark family (see README "Fleet
// benchmark"). The 10k tier always runs and is what CI's bench-smoke
// exercises; the 100k tier runs when BENCH_FLEET_LARGE is set, and the
// million-device tier when BENCH_FLEET_1M is set.
func BenchmarkFleet(b *testing.B) {
	b.Run("lane-10k-24h", func(b *testing.B) {
		runBench(b, benchScenario(10_000, 24*time.Hour))
	})
	b.Run("lane-100k-72h", func(b *testing.B) {
		if os.Getenv("BENCH_FLEET_LARGE") == "" {
			b.Skip("set BENCH_FLEET_LARGE to run the 100k-device tier")
		}
		runBench(b, benchScenario(100_000, 72*time.Hour))
	})
	b.Run("lane-1m-24h", func(b *testing.B) {
		if os.Getenv("BENCH_FLEET_1M") == "" {
			b.Skip("set BENCH_FLEET_1M to run the million-device tier")
		}
		runBench(b, benchScenario(1_000_000, 24*time.Hour))
	})
}

// allocsPerEventBudget bounds what one lane allocates per recorded event.
// Every device allocates a fixed set of objects when it is built (its
// Android stack, monitor and bound callbacks: about 37), and its hot path
// — probing rounds, stall ticks, probations, retries, radio replies —
// allocates nothing. The fleet below measures 0.86 per event (55 before
// the hot path stopped allocating); the margin of 0.39 is less than one
// closure per probing round would add (1.6 per event).
const allocsPerEventBudget = 1.25

// allocsPerDeviceBudget bounds the same lane's allocations per simulated
// device, which the set-up objects dominate. The fleet below measures
// 36.6; an object added to every device's build (a manager nothing
// listens to, a map, one more bound closure) crosses it.
const allocsPerDeviceBudget = 37

// TestRunAllocsPerEvent holds the simulator to allocsPerEventBudget and
// allocsPerDeviceBudget: one lane simulates a fixed fleet (seed 11, 300
// devices, 72 h) with Run's one-off set-up — deployment, class masses,
// campaign — built beforehand. A closure that creeps back onto a device's
// hot path, or an object that creeps into its build, fails here.
func TestRunAllocsPerEvent(t *testing.T) {
	s := Scenario{Seed: 11, NumDevices: 300, Window: 72 * time.Hour, Workers: 1}.withDefaults()
	network, err := simnet.Generate(simnet.DefaultDeployment(s.NumBS), rng.New(s.Seed).Split("deployment"))
	if err != nil {
		t.Fatal(err)
	}
	refMass := estimateClassMasses(network, s)
	inj, err := faultinject.Compile(s.Faults, network.Stations, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	allocs := testing.AllocsPerRun(1, func() {
		out := runShardLanes(&s, refMass, network, inj, 0, 0, s.NumDevices)
		events = len(out.events)
	})
	if events == 0 {
		t.Fatal("the lane recorded no events")
	}
	perEvent, perDevice := allocs/float64(events), allocs/float64(s.NumDevices)
	t.Logf("%.0f allocations for %d events: %.3f per event (budget %.2f), %.1f per device (budget %d)",
		allocs, events, perEvent, allocsPerEventBudget, perDevice, allocsPerDeviceBudget)
	if perEvent > allocsPerEventBudget {
		t.Errorf("one lane allocates %.3f per recorded event, over the budget of %.2f: a device's hot path allocates again",
			perEvent, allocsPerEventBudget)
	}
	if perDevice > allocsPerDeviceBudget {
		t.Errorf("one lane allocates %.1f per device, over the budget of %d: a device's build allocates more",
			perDevice, allocsPerDeviceBudget)
	}
}
