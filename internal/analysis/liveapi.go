package analysis

import (
	"fmt"
	"html/template"
	"net/http"
	"slices"

	"repro/internal/simnet"
	"repro/internal/trace"
)

// LiveAPI serves the streaming engine's figures, claims, sliding-window
// summary and ingest status over HTTP. Figure and claim responses are the
// *raw bytes* of the canonical renderer — the same bytes `cellanalyze`
// writes in batch mode — so the streaming=batch contract is observable
// with curl + cmp, not just inside tests. A poll of an engine whose state
// has not changed since the last render is served that render's bytes
// (Streaming.FiguresJSON). Every JSON response goes out through the trace
// package's JSON writers, which count a failed write on
// trace_http_encode_errors_total. The dataset aggregates and the
// dashboard read the same pass: a device counts under the model and ISP of
// its first event, as in Table 1 and Figures 12/13.
//
//	GET /api/live/figures — canonical figures document (live state)
//	GET /api/live/claims  — claims scorecard (live state)
//	GET /api/live/window  — sliding-window summary
//	GET /api/live/status  — ingest accounting (events, chunks, queue lag)
//	GET /api/stats        — events, failing devices, events per kind
//	GET /api/by-model     — events and failing devices per model present
//	GET /api/by-isp       — events and failing devices per ISP
//	GET /                 — dashboard page
type LiveAPI struct {
	s *Streaming
	// Catalogue feeds Table 1 and the hardware correlation; the cmd layer
	// passes it in because analysis cannot import the device catalogue.
	catalogue []ModelCatalogueEntry
}

// NewLiveAPI wraps a streaming engine.
func NewLiveAPI(s *Streaming, catalogue []ModelCatalogueEntry) *LiveAPI {
	return &LiveAPI{s: s, catalogue: catalogue}
}

// Routes registers the live endpoints on mux.
func (a *LiveAPI) Routes(mux *http.ServeMux) {
	mux.HandleFunc("/api/live/figures", a.handleFigures)
	mux.HandleFunc("/api/live/claims", a.handleClaims)
	mux.HandleFunc("/api/live/window", a.handleWindow)
	mux.HandleFunc("/api/live/status", a.handleStatus)
	mux.HandleFunc("/api/stats", a.handleStats)
	mux.HandleFunc("/api/by-model", a.handleByModel)
	mux.HandleFunc("/api/by-isp", a.handleByISP)
	mux.HandleFunc("/", a.handleDashboard)
}

func (a *LiveAPI) writeRendered(w http.ResponseWriter, b []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	trace.WriteJSONBody(w, b)
}

func (a *LiveAPI) handleFigures(w http.ResponseWriter, r *http.Request) {
	b, err := a.s.FiguresJSON(a.catalogue)
	a.writeRendered(w, b, err)
}

func (a *LiveAPI) handleClaims(w http.ResponseWriter, r *http.Request) {
	b, err := a.s.ClaimsJSON()
	a.writeRendered(w, b, err)
}

func (a *LiveAPI) handleWindow(w http.ResponseWriter, r *http.Request) {
	trace.WriteJSON(w, a.s.Window())
}

func (a *LiveAPI) handleStatus(w http.ResponseWriter, r *http.Request) {
	trace.WriteJSON(w, a.s.Status())
}

func (a *LiveAPI) handleStats(w http.ResponseWriter, r *http.Request) {
	type stats struct {
		Events  int            `json:"events"`
		Devices int            `json:"devices"`
		ByKind  map[string]int `json:"by_kind"`
	}
	var out stats
	a.s.counts(func(_ *Input, v *passVisitor) {
		out = stats{Events: v.dur.count, Devices: v.dev.failing(), ByKind: v.kindDur.counts()}
	})
	trace.WriteJSON(w, out)
}

func (a *LiveAPI) handleByModel(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ModelID int `json:"model_id"`
		Events  int `json:"events"`
		Devices int `json:"devices"`
	}
	byModel := map[int32]row{}
	a.s.counts(func(_ *Input, v *passVisitor) {
		v.dev.each(func(_ uint64, d *devState) {
			m := byModel[d.modelID]
			m.Events += int(d.total)
			m.Devices++
			byModel[d.modelID] = m
		})
	})
	out := make([]row, 0, len(byModel))
	for id, m := range byModel {
		m.ModelID = int(id)
		out = append(out, m)
	}
	slices.SortFunc(out, func(x, y row) int { return x.ModelID - y.ModelID })
	trace.WriteJSON(w, out)
}

func (a *LiveAPI) handleByISP(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ISP     string `json:"isp"`
		Events  int    `json:"events"`
		Devices int    `json:"devices"`
	}
	var out []row
	a.s.counts(func(in *Input, v *passVisitor) {
		for _, g := range v.dev.byISP(in.Population) {
			out = append(out, row{ISP: g.Name, Events: g.Events, Devices: g.Failing})
		}
	})
	trace.WriteJSON(w, out)
}

var dashboard = template.Must(template.New("dashboard").Funcs(template.FuncMap{
	"pct": func(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) },
}).Parse(`<!doctype html>
<title>cellrel dashboard</title>
<style>body{font-family:monospace;margin:2em}td,th{padding:2px 12px;text-align:right}</style>
<h1>cellrel — cellular reliability dashboard</h1>
<p>{{.All.Events}} failures from {{.All.Devices}} devices ({{pct .All.Prevalence}} prevalence, {{printf "%.1f" .All.Frequency}} failures/phone)</p>
<h2>By kind</h2>
<table><tr><th>kind</th><th>events</th></tr>
{{range $kind, $n := .Kinds}}<tr><td>{{$kind}}</td><td>{{$n}}</td></tr>{{end}}</table>
<h2>By ISP</h2>
<table><tr><th>ISP</th><th>prevalence</th><th>frequency</th></tr>
{{range .ISPs}}<tr><td>{{.Name}}</td><td>{{pct .Prevalence}}</td><td>{{printf "%.1f" .Frequency}}</td></tr>{{end}}</table>
<p>JSON API: <a href="/api/stats">/api/stats</a> · <a href="/api/by-model">/api/by-model</a> ·
<a href="/api/by-isp">/api/by-isp</a> · <a href="/api/events?limit=20">/api/events</a> ·
<a href="/api/digest">/api/digest</a> · <a href="/api/live/figures">/api/live/figures</a> ·
<a href="/api/live/claims">/api/live/claims</a> · <a href="/metrics">/metrics</a></p>
`))

// handleDashboard renders the one HTML page: the whole population's
// prevalence and frequency, events per kind and the per-ISP comparison.
func (a *LiveAPI) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	var page struct {
		All   GroupStats
		Kinds map[string]int
		ISPs  [simnet.NumISPs]GroupStats
	}
	a.s.counts(func(in *Input, v *passVisitor) {
		page.All = makeGroup("all", in.Population.Total, v.dev.failing(), v.dur.count)
		page.Kinds = v.kindDur.counts()
		page.ISPs = v.dev.byISP(in.Population)
	})
	dashboard.Execute(w, &page)
}
