package analysis

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/android"
	"repro/internal/fleet"
)

// TestSimulateMatchesNewPass requires the pass Simulate sweeps from the
// workers' sinks to equal the pass over the buffered run of the same
// scenario, byte for byte: the figures and claims documents, the run
// context, the integrity and fault reports, and the event count. Worker
// counts one, two and eight cut the devices differently; the blackout
// campaign adds injected faults, and the patched fleet the enhancements.
//
// ci/verify.sh's race stage runs it five times: the workers' sinks fill
// concurrently, and the merge must not care in which order.
func TestSimulateMatchesNewPass(t *testing.T) {
	blackout, _, err := fleet.LoadScenario("../../scenarios/chaos-blackout.json")
	if err != nil {
		t.Fatal(err)
	}
	base := fleet.Scenario{Seed: 13, NumDevices: 1500}
	cases := []struct {
		name string
		s    fleet.Scenario
	}{
		{"workers-1", withWorkers(base, 1)},
		{"workers-2", withWorkers(base, 2)},
		{"workers-8", withWorkers(base, 8)},
		{"chaos-blackout", blackout},
		{"patched", withWorkers(base, 4).Patched(android.PaperTIMPTrigger)},
	}
	cat := modelCatalogue()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := fleet.Run(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			res, pass, err := Simulate(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			want := NewPass(FromResult(ref))
			if res.Monitor.Recorded == 0 || res.Monitor.Recorded != ref.Dataset.Len() {
				t.Fatalf("Simulate recorded %d events, the buffered run holds %d", res.Monitor.Recorded, ref.Dataset.Len())
			}
			if n := res.Dataset.Len(); n != 0 {
				t.Errorf("Simulate's result holds %d events, want none", n)
			}
			for _, doc := range []struct {
				name      string
				got, want func() ([]byte, error)
			}{
				{"figures", func() ([]byte, error) { return pass.FiguresJSON(cat) }, func() ([]byte, error) { return want.FiguresJSON(cat) }},
				{"claims", pass.ClaimsJSON, want.ClaimsJSON},
			} {
				got, err := doc.got()
				if err != nil {
					t.Fatal(err)
				}
				exp, err := doc.want()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, exp) {
					t.Errorf("%s document: %d bytes from the sinks differ from the buffered pass's %d", doc.name, len(got), len(exp))
				}
			}
			if !reflect.DeepEqual(res.Context, ref.Context) {
				t.Error("run context differs from the buffered run's")
			}
			if res.Integrity != ref.Integrity {
				t.Errorf("integrity %+v, buffered run %+v", res.Integrity, ref.Integrity)
			}
			if !reflect.DeepEqual(res.Faults, ref.Faults) {
				t.Errorf("fault report %v, buffered run %v", res.Faults, ref.Faults)
			}
		})
	}
	t.Run("upload-refused", func(t *testing.T) {
		if _, _, err := Simulate(fleet.Scenario{NumDevices: 10, UploadAddr: "127.0.0.1:1"}); err == nil {
			t.Error("Simulate ran an uploading scenario, want it refused")
		}
	})
}

// TestSimulateRetainsNoEvents pins what a swept run keeps: after it
// returns and a collection, the Result and the Pass hold under 40 B per
// recorded event (device tables, station table and the sorted duration
// samples), where a buffered run holds at least the 72 B of each event.
func TestSimulateRetainsNoEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the live heap")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, pass, err := Simulate(fleet.Scenario{Seed: 11, NumDevices: 20000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pass)
	perEvent := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(res.Monitor.Recorded)
	t.Logf("%d events: %.1f B retained per event", res.Monitor.Recorded, perEvent)
	if perEvent >= 40 {
		t.Errorf("a swept run retains %.1f B per recorded event, want under 40", perEvent)
	}
}

func withWorkers(s fleet.Scenario, workers int) fleet.Scenario {
	s.Workers = workers
	return s
}
