package fleet

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestRunUpdatesMetrics verifies the runner's wiring into the process
// registry: a fleet run moves the device, shard, scheduler-event, and
// recorded-event counters by the expected amounts (deltas, because the
// registry is process-wide and other tests run fleets too).
func TestRunUpdatesMetrics(t *testing.T) {
	reg := metrics.Default()
	val := func(name string) float64 {
		v, ok := reg.Value(name)
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return v
	}
	devices0 := val("fleet_devices_simulated_total")
	shards0 := val("fleet_shards_completed_total")
	simEvents0 := val("fleet_sim_events_total")
	recorded0 := val("monitor_events_recorded_total")

	res, err := Run(Scenario{Seed: 5, NumDevices: 60, Workers: 3, Window: 5 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	if d := val("fleet_devices_simulated_total") - devices0; d != 60 {
		t.Errorf("devices counter moved by %v, want 60", d)
	}
	if d := val("fleet_shards_completed_total") - shards0; d != 3 {
		t.Errorf("shards counter moved by %v, want 3", d)
	}
	if d := val("fleet_sim_events_total") - simEvents0; d <= 0 {
		t.Errorf("sim-events counter moved by %v, want > 0", d)
	}
	if d := val("monitor_events_recorded_total") - recorded0; d != float64(res.Monitor.Recorded) {
		t.Errorf("recorded counter moved by %v, want %d", d, res.Monitor.Recorded)
	}
	if res.Monitor.Recorded != res.Dataset.Len() {
		t.Errorf("%d events recorded, %d in the dataset", res.Monitor.Recorded, res.Dataset.Len())
	}
	if c, _ := reg.Value("fleet_shard_walltime_seconds"); c <= 0 {
		t.Error("shard walltime histogram recorded no observations")
	}
}
