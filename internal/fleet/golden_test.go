package fleet

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/faultinject"
)

var updateGolden = flag.Bool("update", false, "rewrite golden test fixtures")

// goldenHistogram is the committed fingerprint of a fixed-seed run: the
// per-kind failure histogram for the calm and the faulted variant of one
// small scenario. Any change to the simulator's draw sequence — a
// reordered RNG call, a new sample on the base stream, a changed default —
// shows up here before it shows up in a full-size reproduction run.
type goldenHistogram struct {
	Scenario string         `json:"scenario"`
	Events   int            `json:"events"`
	Kinds    map[string]int `json:"kinds"`
}

func histogram(res *Result, name string) goldenHistogram {
	g := goldenHistogram{Scenario: name, Kinds: make(map[string]int)}
	res.Dataset.Each(func(e *failure.Event) {
		g.Events++
		g.Kinds[e.Kind.String()]++
	})
	return g
}

// TestGoldenFailureHistogram pins the failure-class histogram of a small
// fixed-seed scenario, calm and under the all-classes test campaign,
// against testdata/golden_histograms.json. Run with -update to accept an
// intentional change to the draw sequence.
func TestGoldenFailureHistogram(t *testing.T) {
	calm := Scenario{Seed: 42, NumDevices: 150, Workers: 4, Window: 60 * 24 * time.Hour}
	faulted := calm
	faulted.Faults = testCampaign()
	// Only the rules that start inside the 60-day window: the others
	// would never fire, and Run refuses them.
	var reached []faultinject.Rule
	for _, r := range faulted.Faults.Rules {
		if r.Start < calm.Window {
			reached = append(reached, r)
		}
	}
	faulted.Faults.Rules = reached

	var got []goldenHistogram
	for _, run := range []struct {
		name string
		scen Scenario
	}{{"calm", calm}, {"faulted", faulted}} {
		res, err := Run(run.scen)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		got = append(got, histogram(res, run.name))
	}

	path := filepath.Join("testdata", "golden_histograms.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/fleet -run GoldenFailureHistogram -update` to create it)", err)
	}
	var want []goldenHistogram
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	if !reflect.DeepEqual(got, want) {
		gotJSON, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("failure histogram drifted from %s.\nGot:\n%s\n\nIf the draw-sequence change is intentional, rerun with -update.", path, gotJSON)
	}
}
