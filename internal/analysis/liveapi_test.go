package analysis

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// datasetServer feeds the engine the dataset aggregates' edge cases and
// serves its LiveAPI: a model ID past the catalogue, every ISP, a kind byte
// past the named kinds, and a device seen again under another model and ISP.
func datasetServer(t *testing.T) *httptest.Server {
	t.Helper()
	var events []failure.Event
	for i := range 60 {
		events = append(events, failure.Event{
			Kind: failure.Kind(i % 3), DeviceID: uint64(i), ModelID: uint16(i % 34),
			ISP: simnet.ISPID(i % 3), Start: time.Duration(i) * time.Minute, Duration: time.Second,
		})
	}
	stray := events[0]
	stray.DeviceID, stray.ModelID = 999, 4711
	unknown := events[0]
	unknown.DeviceID, unknown.ModelID, unknown.ISP, unknown.Kind = 1000, 33, simnet.ISPC, 200
	// Device 0 again, under another model and ISP: it stays model 0, ISP-A.
	again := events[0]
	again.Kind, again.ModelID, again.ISP = failure.OutOfService, 9, simnet.ISPC
	events = append(events, stray, unknown, again)

	eng := liveOver(t, LiveInput(trace.FromEvents(events)), events, 7)
	t.Cleanup(eng.Close)
	mux := http.NewServeMux()
	NewLiveAPI(eng, catalogueCE).Routes(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestAPIStats reads /api/stats and the dashboard over the edge cases: a
// kind byte past the named kinds counts under "Unknown", and a device seen
// twice counts once.
func TestAPIStats(t *testing.T) {
	srv := datasetServer(t)

	const wantStats = `{"events":63,"devices":62,"by_kind":{"Data_Setup_Error":21,"Data_Stall":20,"Out_of_Service":21,"Unknown":1}}` + "\n"
	if got := string(liveGet(t, srv, "/api/stats")); got != wantStats {
		t.Errorf("/api/stats = %s want %s", got, wantStats)
	}
	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	if page := string(liveGet(t, srv, "/")); !strings.Contains(page, "63 failures") || !strings.Contains(page, "<td>Unknown</td><td>1</td>") {
		t.Errorf("dashboard does not show the totals:\n%s", page)
	}
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope: status %d, want 404", resp.StatusCode)
	}
}

// TestAPIByModelAndISP reads /api/by-isp and /api/by-model over the edge
// cases: every ISP has a row, a model ID past the catalogue gets its own
// row, and a device counts under the model and ISP of its first event, as
// in Table 1 and Figures 12/13.
func TestAPIByModelAndISP(t *testing.T) {
	srv := datasetServer(t)

	const wantISPs = `[{"isp":"ISP-A","events":22,"devices":21},{"isp":"ISP-B","events":20,"devices":20},{"isp":"ISP-C","events":21,"devices":21}]` + "\n"
	if got := string(liveGet(t, srv, "/api/by-isp")); got != wantISPs {
		t.Errorf("/api/by-isp = %s want %s", got, wantISPs)
	}

	var models []struct {
		ModelID int `json:"model_id"`
		Events  int `json:"events"`
		Devices int `json:"devices"`
	}
	if err := json.Unmarshal(liveGet(t, srv, "/api/by-model"), &models); err != nil {
		t.Fatal(err)
	}
	if len(models) != 35 || models[0].ModelID != 0 || models[34].ModelID != 4711 {
		t.Fatalf("%d model rows, want every model present (0..33 and 4711) in ID order: %+v", len(models), models)
	}
	sumEvents, sumDevices := 0, 0
	for i, m := range models {
		if i > 0 && m.ModelID <= models[i-1].ModelID {
			t.Errorf("row %d: model %d after model %d", i, m.ModelID, models[i-1].ModelID)
		}
		// Models 0..25 have two of the first 60 devices, 26..33 one; model 0
		// also has device 0's second event, model 33 the unknown-kind device.
		want := [2]int{1 + (59-m.ModelID)/34, 1 + (59-m.ModelID)/34}
		switch m.ModelID {
		case 0:
			want = [2]int{3, 2}
		case 33:
			want = [2]int{2, 2}
		case 4711:
			want = [2]int{1, 1}
		}
		if got := [2]int{m.Events, m.Devices}; got != want {
			t.Errorf("model %d: %d events on %d devices, want %d on %d", m.ModelID, got[0], got[1], want[0], want[1])
		}
		sumEvents += m.Events
		sumDevices += m.Devices
	}
	if sumEvents != 63 || sumDevices != 62 {
		t.Errorf("model rows account for %d events on %d devices, want 63 on 62", sumEvents, sumDevices)
	}
}
