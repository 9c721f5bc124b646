package trace

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"repro/internal/failure"
)

// QueryAPI serves read-only JSON views of a dataset over HTTP — the
// centralized-analysis side of the pipeline as a service. Handlers are
// plain net/http so the server composes with any mux.
//
//	GET /api/stats                  — dataset totals
//	GET /api/events?limit=N&kind=K  — raw events (filtered, truncated)
//	GET /api/by-model               — per-model event counts and devices
//	GET /api/by-isp                 — per-ISP event counts and devices
//	GET /api/digest                 — order-independent multiset digest
type QueryAPI struct {
	ds *Dataset
}

// NewQueryAPI wraps a dataset.
func NewQueryAPI(ds *Dataset) *QueryAPI { return &QueryAPI{ds: ds} }

// Routes registers the API on mux under /api/.
func (a *QueryAPI) Routes(mux *http.ServeMux) {
	mux.HandleFunc("/api/stats", a.handleStats)
	mux.HandleFunc("/api/events", a.handleEvents)
	mux.HandleFunc("/api/by-model", a.handleByModel)
	mux.HandleFunc("/api/by-isp", a.handleByISP)
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

func (a *QueryAPI) handleStats(w http.ResponseWriter, r *http.Request) {
	type stats struct {
		Events  int            `json:"events"`
		Devices int            `json:"devices"`
		ByKind  map[string]int `json:"by_kind"`
	}
	out := stats{ByKind: map[string]int{}}
	devices := map[uint64]bool{}
	a.ds.Each(func(e *failure.Event) {
		out.Events++
		devices[e.DeviceID] = true
		out.ByKind[e.Kind.String()]++
	})
	out.Devices = len(devices)
	WriteJSON(w, out)
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

func (a *QueryAPI) handleByModel(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ModelID int `json:"model_id"`
		Events  int `json:"events"`
		Devices int `json:"devices"`
	}
	events := map[uint16]int{}
	devices := map[uint16]map[uint64]bool{}
	a.ds.Each(func(e *failure.Event) {
		events[e.ModelID]++
		if devices[e.ModelID] == nil {
			devices[e.ModelID] = map[uint64]bool{}
		}
		devices[e.ModelID][e.DeviceID] = true
	})
	out := make([]row, 0, len(events))
	for id, n := range events {
		out = append(out, row{ModelID: int(id), Events: n, Devices: len(devices[id])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ModelID < out[j].ModelID })
	WriteJSON(w, out)
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

func (a *QueryAPI) handleByISP(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ISP     string `json:"isp"`
		Events  int    `json:"events"`
		Devices int    `json:"devices"`
	}
	events := map[string]int{}
	devices := map[string]map[uint64]bool{}
	a.ds.Each(func(e *failure.Event) {
		k := e.ISP.String()
		events[k]++
		if devices[k] == nil {
			devices[k] = map[uint64]bool{}
		}
		devices[k][e.DeviceID] = true
	})
	var out []row
	for _, isp := range []string{"ISP-A", "ISP-B", "ISP-C"} {
		out = append(out, row{ISP: isp, Events: events[isp], Devices: len(devices[isp])})
	}
	WriteJSON(w, out)
}
