package main

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// scenarioPath names a committed scenario document.
func scenarioPath(name string) string { return filepath.Join("..", "..", "scenarios", name) }

// loadScenario reads a committed scenario document.
func loadScenario(t *testing.T, name string) (fleet.Scenario, *fleet.Backend) {
	t.Helper()
	s, b, err := fleet.LoadScenario(scenarioPath(name))
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

// TestChaosArms runs every committed upload document at tier-1 size, with
// only its device count changed: all checks pass, the I6 segment checks
// ride on every arm, I7 appears only with more than one collector, and
// each kill action brings its own "fired" check. The subtests are named
// after the flag arms of the retired `cellcheck chaos` subcommand.
func TestChaosArms(t *testing.T) {
	for _, tc := range []struct {
		arm, doc string
		want     []string // ids that must be present, beyond I1-I5 and the I6 segment checks
		i7       bool
	}{
		{arm: "-fleet 1", doc: "chaos-fleet1.json"},
		{arm: "-kill restart", doc: "chaos-restart.json", want: []string{"I6/restart-fired"}},
		{arm: "-fleet 3 -kill restart", doc: "chaos-fleet3-restart.json", want: []string{"I6/restart-fired", "I7/single-collector-equal"}, i7: true},
		{arm: "-fleet 3 -kill failover", doc: "chaos-fleet3-failover.json", want: []string{"I7/failover-fired", "I7/takeover-reroute", "I7/union-exactly-once", "I7/single-collector-equal"}, i7: true},
	} {
		t.Run(tc.arm, func(t *testing.T) {
			s, b := loadScenario(t, tc.doc)
			s.NumDevices = 150
			checks, err := runChaos(s, b, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			ids := map[string]bool{}
			for _, c := range checks {
				ids[c.id] = true
				if !c.pass {
					t.Errorf("[FAIL] %s %s — %s", c.id, c.text, c.detail)
				}
				if strings.HasPrefix(c.id, "I7/") && !tc.i7 {
					t.Errorf("%s reported with a single collector", c.id)
				}
			}
			for _, id := range append(tc.want, "I2/integrity", "I4/exactly-once", "I5/streaming-batch",
				"I6/segments-live", "I6/segments-batch-equal") {
				if !ids[id] {
					t.Errorf("check %s missing", id)
				}
			}
		})
	}
}

// TestChaosRejectsFailoverWithoutSurvivors: a takeover needs someone to
// take over, and the kill monitor knows two actions. The document is
// refused before anything runs.
func TestChaosRejectsFailoverWithoutSurvivors(t *testing.T) {
	raw, err := os.ReadFile(scenarioPath("chaos-fleet1.json"))
	if err != nil {
		t.Fatal(err)
	}
	const backend = `"backend": {"collectors": 1}`
	if !strings.Contains(string(raw), backend) {
		t.Fatalf("chaos-fleet1.json has no %s", backend)
	}
	for _, b := range []string{`"backend": {"kill": "failover"}`, `"backend": {"collectors": 1, "kill": "failover"}`,
		`"backend": {"collectors": 3, "kill": "bogus"}`} {
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(path, []byte(strings.Replace(string(raw), backend, b, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run([]string{path}, &out); err == nil || errors.Is(err, errFailed) || out.Len() > 0 {
			t.Errorf("cellcheck with %s: %v after %q; want a parse error before any run", b, err, out.String())
		}
	}
}

// TestLiveServedCountsAnsweredQueries: a mid-run query the live endpoints
// refuse is not a query they served, so I5/live-served fails when every
// one of them answered 503 while the segment index kept answering.
func TestLiveServedCountsAnsweredQueries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/api/live/") {
			http.Error(w, "engine unavailable", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "[]")
	}))
	defer srv.Close()
	live := &liveRun{}
	for range 3 {
		live.poll(srv)
	}
	if live.queries != 0 || live.segQueries != 3 {
		t.Errorf("live queries %d, segment queries %d; want 0 and 3", live.queries, live.segQueries)
	}
	for _, c := range streamingInvariants(live, live) {
		if c.id == "I5/live-served" && c.pass {
			t.Errorf("[PASS] %s with every live query refused — %s", c.id, c.detail)
		}
	}
}

// TestScenarioDocumentsMatchTheirNames: every committed document parses,
// and what it runs is what its name says — claims.json and the run
// documents cellsim and cellrepro take (cellsweep's, in scenarios/sweep/,
// are checked by TestSweepDocumentsMatchTheirNames) no campaign and no
// backend (upload-*.json, and only those, upload), chaos-blackout.json
// the in-process invariants, and
// chaos-[fleetN][-restart|-failover].json the upload harness with N
// collectors (one without fleetN) and that kill action. The upload
// documents differ in their backend alone.
func TestScenarioDocumentsMatchTheirNames(t *testing.T) {
	paths, err := filepath.Glob(scenarioPath("*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario documents: %v", err)
	}
	upload := regexp.MustCompile(`^chaos(?:-fleet(\d+))?(?:-(restart|failover))?$`)
	var first *fleet.Scenario
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		s, b := loadScenario(t, filepath.Base(path))
		switch m := upload.FindStringSubmatch(name); {
		case !strings.HasPrefix(name, "chaos"):
			if s.Faults != nil || b != nil || strings.HasPrefix(name, "upload") != (s.UploadAddr != "") {
				t.Errorf("%s: faults %v, backend %+v, upload_addr %q", name, s.Faults != nil, b, s.UploadAddr)
			}
		case name == "chaos-blackout":
			if s.Faults == nil || s.Faults.HasNetworkRules() || b != nil {
				t.Errorf("%s: want a radio-only campaign and no backend", name)
			}
		case m != nil && name != "chaos":
			want := fleet.Backend{Collectors: 1, Kill: m[2]}
			if m[1] != "" {
				want.Collectors, _ = strconv.Atoi(m[1])
			}
			if b == nil || *b != want || !s.Faults.HasNetworkRules() {
				t.Errorf("%s: backend %+v, network rules %v; want %+v and network rules", name, b, s.Faults.HasNetworkRules(), want)
			}
			if first == nil {
				first = &s
			} else if !reflect.DeepEqual(*first, s) {
				t.Errorf("%s: the upload documents differ beyond their backend", name)
			}
		default:
			t.Errorf("%s: a name that says nothing about what the document runs", name)
		}
	}
}

// TestChaosBlackoutDocument runs the committed radio-only campaign at
// tier-1 size, with only its device count changed: I1-I3 hold, no upload
// invariant is reported without a backend, and upload_addr is refused.
func TestChaosBlackoutDocument(t *testing.T) {
	s, b := loadScenario(t, "chaos-blackout.json")
	s.NumDevices = 150
	checks, err := runChaos(s, b, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if !c.pass {
			t.Errorf("[FAIL] %s %s — %s", c.id, c.text, c.detail)
		}
		if !strings.HasPrefix(c.id, "I1/") && !strings.HasPrefix(c.id, "I2/") && !strings.HasPrefix(c.id, "I3/") {
			t.Errorf("%s reported without a backend", c.id)
		}
	}
	if len(checks) != 4+1+3 {
		t.Errorf("%d checks, want one I1 per rule, I2 and one I3 per failure kind (8)", len(checks))
	}
	// Without a backend nothing collects an upload: upload_addr is refused.
	s.UploadAddr = "127.0.0.1:1"
	if _, err := runChaos(s, nil, io.Discard); err == nil || !strings.Contains(err.Error(), "uploading run") {
		t.Errorf("a campaign with upload_addr and no backend: %v, want a refusal", err)
	}
}
