package trace

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func apiServer(t *testing.T, n int) (*httptest.Server, func()) {
	t.Helper()
	ds := NewDataset()
	ds.Publish(sampleEvents(n))
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

	// No matching event is an empty page: [], not null.
	empty, emptyDone := apiServer(t, 0)
	defer emptyDone()
	for _, url := range []string{srv.URL + "/api/events?kind=none", empty.URL + "/api/events", empty.URL + "/api/events?kind=Data_Stall"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(body) != "[]\n" {
			t.Errorf("%s: %d %q (err %v), want 200 \"[]\\n\"", url, resp.StatusCode, body, err)
		}
	}

	// Pages follow publish order across segments: limit=N is the first N
	// events published, and a kind filter pages past the events it skips.
	// Segment s holds devices 100s..100s+9, so a row's device names its
	// segment and its place in it.
	ds := NewDataset()
	for s := range 4 {
		seg := sampleEvents(10)
		for i := range seg {
			seg[i].DeviceID = uint64(100*s + i)
		}
		ds.Publish(seg)
	}
	mux := http.NewServeMux()
	NewQueryAPI(ds).Routes(mux)
	segmented := httptest.NewServer(mux)
	defer segmented.Close()
	type row struct {
		DeviceID uint64 `json:"device_id"`
		Kind     string `json:"kind"`
	}
	var page []row
	getJSON(t, segmented.URL+"/api/events?limit=25", &page)
	if len(page) != 25 {
		t.Fatalf("limit=25 over 40 events: %d rows", len(page))
	}
	for i, r := range page {
		if want := uint64(100*(i/10) + i%10); r.DeviceID != want {
			t.Fatalf("row %d is device %d, want the %dth published, device %d", i, r.DeviceID, i, want)
		}
	}
	// sampleEvents(10) has kinds 0,1,2,0,…: three Data_Stall events (kind 2)
	// per segment, at places 2, 5 and 8.
	page = nil
	getJSON(t, segmented.URL+"/api/events?kind=Data_Stall&limit=5", &page)
	want := []uint64{2, 5, 8, 102, 105}
	if len(page) != len(want) {
		t.Fatalf("kind=Data_Stall&limit=5: %d rows, want %d", len(page), len(want))
	}
	for i, r := range page {
		if r.Kind != "Data_Stall" || r.DeviceID != want[i] {
			t.Fatalf("kind=Data_Stall row %d: %s device %d, want Data_Stall device %d", i, r.Kind, r.DeviceID, want[i])
		}
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
	ds.Publish(sampleEvents(25))
	if want := ds.MultisetDigest().String(); out.Digest != want {
		t.Errorf("digest = %s, want %s", out.Digest, want)
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
	WriteJSON(&brokenResponseWriter{}, map[string]int{"x": 1})
	if got := mHTTPEncodeErrors.Value() - before; got != 1 {
		t.Fatalf("encode errors counted = %d, want 1", got)
	}
	// Sanity: a healthy writer must not bump the counter.
	rec := httptest.NewRecorder()
	before = mHTTPEncodeErrors.Value()
	WriteJSON(rec, map[string]int{"x": 1})
	if got := mHTTPEncodeErrors.Value() - before; got != 0 {
		t.Fatalf("healthy encode bumped counter by %d", got)
	}
	if rec.Body.Len() == 0 {
		t.Fatal("healthy encode wrote nothing")
	}
}
