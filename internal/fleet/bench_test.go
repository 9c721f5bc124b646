package fleet

import (
	"os"
	"testing"
	"time"
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
// device- and event-throughput metrics.
func runBench(b *testing.B, s Scenario) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Dataset.Len() == 0 && s.UploadAddr == "" {
			b.Fatal("benchmark run produced no events")
		}
		b.ReportMetric(float64(res.Dataset.Len()), "events/op")
	}
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(s.NumDevices)*float64(b.N)/elapsed, "devices/s")
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
