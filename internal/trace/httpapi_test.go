package trace

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func apiServer(t *testing.T, n int) (*httptest.Server, func()) {
	t.Helper()
	ds := NewDataset()
	ds.Append(sampleEvents(n)...)
	mux := http.NewServeMux()
	NewQueryAPI(ds).Routes(mux)
	srv := httptest.NewServer(mux)
	return srv, srv.Close
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestAPIStats(t *testing.T) {
	srv, done := apiServer(t, 30)
	defer done()
	var out struct {
		Events  int            `json:"events"`
		Devices int            `json:"devices"`
		ByKind  map[string]int `json:"by_kind"`
	}
	resp := getJSON(t, srv.URL+"/api/stats", &out)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Events != 30 || out.Devices != 30 {
		t.Errorf("stats = %+v", out)
	}
	if len(out.ByKind) != 3 {
		t.Errorf("kinds = %v", out.ByKind)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
}

func TestAPIEventsLimitAndFilter(t *testing.T) {
	srv, done := apiServer(t, 50)
	defer done()
	var rows []map[string]any
	getJSON(t, srv.URL+"/api/events?limit=7", &rows)
	if len(rows) != 7 {
		t.Errorf("limit ignored: %d rows", len(rows))
	}
	rows = nil
	getJSON(t, srv.URL+"/api/events?kind=Data_Stall&limit=1000", &rows)
	if len(rows) == 0 {
		t.Fatal("no stall rows")
	}
	for _, r := range rows {
		if r["kind"] != "Data_Stall" {
			t.Fatalf("filter leaked: %v", r["kind"])
		}
	}
	resp, err := http.Get(srv.URL + "/api/events?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status = %d", resp.StatusCode)
	}

	// A page the first shard fills ends the scan there. Every later
	// shard's lock is held meanwhile: a handler that went on to snapshot
	// one of them would not answer.
	ds := NewDataset()
	for s := 0; s < ds.NumShards(); s++ {
		ds.AppendShard(s, sampleEvents(10)...)
	}
	mux := http.NewServeMux()
	NewQueryAPI(ds).Routes(mux)
	sharded := httptest.NewServer(mux)
	defer sharded.Close()
	for s := 1; s < ds.NumShards(); s++ {
		ds.shards[s].mu.Lock()
	}
	client := http.Client{Timeout: 5 * time.Second}
	resp, err = client.Get(sharded.URL + "/api/events?limit=10")
	for s := 1; s < ds.NumShards(); s++ {
		ds.shards[s].mu.Unlock()
	}
	if err != nil {
		t.Fatalf("limit=10 over a 10-event first shard visited a later shard: %v", err)
	}
	defer resp.Body.Close()
	rows = nil
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("first-shard page: %d rows, want 10", len(rows))
	}
	rows = nil
	getJSON(t, sharded.URL+"/api/events?limit=25", &rows)
	if len(rows) != 25 {
		t.Errorf("page across shards: %d rows, want 25", len(rows))
	}
}

func TestAPIDigest(t *testing.T) {
	srv, done := apiServer(t, 25)
	defer done()
	var out struct {
		Events int    `json:"events"`
		Digest string `json:"digest"`
	}
	resp := getJSON(t, srv.URL+"/api/digest", &out)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Events != 25 {
		t.Errorf("events = %d, want 25", out.Events)
	}
	ds := NewDataset()
	ds.Append(sampleEvents(25)...)
	if want := ds.MultisetDigest().String(); out.Digest != want {
		t.Errorf("digest = %s, want %s", out.Digest, want)
	}
}

func TestAPIByModelAndISP(t *testing.T) {
	// sampleEvents uses ModelID = i % 34: models 0..33, model 0 included.
	// One more event carries a model ID past the catalogue's 34.
	ds := NewDataset()
	ds.Append(sampleEvents(60)...)
	stray := sampleEvents(1)[0]
	stray.DeviceID, stray.ModelID = 999, 4711
	ds.Append(stray)
	mux := http.NewServeMux()
	NewQueryAPI(ds).Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var models []struct {
		ModelID int `json:"model_id"`
		Events  int `json:"events"`
		Devices int `json:"devices"`
	}
	getJSON(t, srv.URL+"/api/by-model", &models)
	if len(models) != 35 || models[0].ModelID != 0 || models[34].ModelID != 4711 {
		t.Fatalf("%d model rows, want every model present (0..33 and 4711) in ID order: %+v", len(models), models)
	}
	totalEvents := 0
	for i, m := range models {
		if i > 0 && m.ModelID <= models[i-1].ModelID {
			t.Errorf("row %d: model %d after model %d", i, m.ModelID, models[i-1].ModelID)
		}
		// One event per device here; models 0..25 got a second device.
		if want := 1 + (59-m.ModelID)/34; m.ModelID < 34 && (m.Events != want || m.Devices != want) {
			t.Errorf("model %d: %d events on %d devices, want %d on %d", m.ModelID, m.Events, m.Devices, want, want)
		}
		totalEvents += m.Events
	}
	if totalEvents != 61 {
		t.Errorf("model rows account for %d events, want all 61", totalEvents)
	}

	var isps []struct {
		ISP    string `json:"isp"`
		Events int    `json:"events"`
	}
	getJSON(t, srv.URL+"/api/by-isp", &isps)
	if len(isps) != 3 {
		t.Fatalf("isp rows = %d", len(isps))
	}
	sum := 0
	for _, r := range isps {
		sum += r.Events
	}
	if sum != 61 {
		t.Errorf("ISP events sum %d, want 61", sum)
	}
}

// brokenResponseWriter fails every Write, simulating a client that hung
// up mid-response.
type brokenResponseWriter struct{ hdr http.Header }

func (w *brokenResponseWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}
func (w *brokenResponseWriter) Write([]byte) (int, error) {
	return 0, errConnGone
}
func (w *brokenResponseWriter) WriteHeader(int) {}

var errConnGone = errors.New("client gone")

// TestWriteJSONEncodeErrorCounted pins the satellite fix: a JSON encode
// failure on the query API must increment trace_http_encode_errors_total
// instead of being silently dropped.
func TestWriteJSONEncodeErrorCounted(t *testing.T) {
	before := mHTTPEncodeErrors.Value()
	writeJSON(&brokenResponseWriter{}, map[string]int{"x": 1})
	if got := mHTTPEncodeErrors.Value() - before; got != 1 {
		t.Fatalf("encode errors counted = %d, want 1", got)
	}
	// Sanity: a healthy writer must not bump the counter.
	rec := httptest.NewRecorder()
	before = mHTTPEncodeErrors.Value()
	writeJSON(rec, map[string]int{"x": 1})
	if got := mHTTPEncodeErrors.Value() - before; got != 0 {
		t.Fatalf("healthy encode bumped counter by %d", got)
	}
	if rec.Body.Len() == 0 {
		t.Fatal("healthy encode wrote nothing")
	}
}
