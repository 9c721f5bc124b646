package trace

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"sync"
)

// QueryAPI serves read-only JSON views of a dataset over HTTP — the
// centralized-analysis side of the pipeline as a service. Handlers are
// plain net/http so the server composes with any mux.
//
//	GET /api/events?limit=N&kind=K  — raw events (filtered, truncated)
//	GET /api/digest                 — order-independent multiset digest
//
// The dataset aggregates (/api/stats, /api/by-model, /api/by-isp) are
// served from the live analysis pass, by analysis.LiveAPI.
type QueryAPI struct {
	ds *Dataset
}

// NewQueryAPI wraps a dataset.
func NewQueryAPI(ds *Dataset) *QueryAPI { return &QueryAPI{ds: ds} }

// Routes registers the API on mux under /api/.
func (a *QueryAPI) Routes(mux *http.ServeMux) {
	mux.HandleFunc("/api/events", a.handleEvents)
	mux.HandleFunc("/api/digest", a.handleDigest)
}

// jsonContentType is every JSON response's Content-Type value, shared:
// net/http only reads it.
var jsonContentType = []string{"application/json"}

// jsonEncoder is an encoder bound to its own buffer; jsonEncoders recycles
// them, so a response costs no encoder or buffer allocation.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncoders = sync.Pool{New: func() any {
	e := &jsonEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// WriteJSON encodes v to the response. An encode failure — a client that
// hung up mid-body, or an unmarshalable value — is logged and counted on
// trace_http_encode_errors_total so truncated API responses show up on
// dashboards instead of vanishing.
func WriteJSON(w http.ResponseWriter, v any) {
	e := jsonEncoders.Get().(*jsonEncoder)
	defer jsonEncoders.Put(e)
	e.buf.Reset()
	err := e.enc.Encode(v)
	if err == nil {
		w.Header()["Content-Type"] = jsonContentType
		_, err = w.Write(e.buf.Bytes())
	}
	if err != nil {
		mHTTPEncodeErrors.Inc()
		log.Printf("trace: http api: encode response: %v", err)
	}
}

func (a *QueryAPI) handleEvents(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > 100000 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	kindFilter := r.URL.Query().Get("kind")
	type jsonRow struct {
		DeviceID uint64  `json:"device_id"`
		Kind     string  `json:"kind"`
		ISP      string  `json:"isp"`
		RAT      string  `json:"rat"`
		Level    int     `json:"level"`
		Cause    string  `json:"cause"`
		Duration float64 `json:"duration_s"`
	}
	// Each order, walked here because Each cannot stop: a full page ends
	// the scan.
	var rows []jsonRow
scan:
	for _, seg := range a.ds.snapshot() {
		for i := range seg {
			e := &seg[i]
			if kindFilter != "" && e.Kind.String() != kindFilter {
				continue
			}
			rows = append(rows, jsonRow{
				DeviceID: e.DeviceID, Kind: e.Kind.String(), ISP: e.ISP.String(),
				RAT: e.RAT.String(), Level: int(e.Level), Cause: e.Cause.String(),
				Duration: e.Duration.Seconds(),
			})
			if len(rows) == limit {
				break scan
			}
		}
	}
	WriteJSON(w, rows)
}

// handleDigest exposes the dataset's order-independent multiset digest,
// so an operator can compare a collector's stored dataset against the
// fleet's recorded digest (or another replica) with two curls instead of
// shipping snapshots around.
func (a *QueryAPI) handleDigest(w http.ResponseWriter, r *http.Request) {
	type digest struct {
		Events int    `json:"events"`
		Digest string `json:"digest"`
	}
	WriteJSON(w, digest{Events: a.ds.Len(), Digest: a.ds.MultisetDigest().String()})
}
