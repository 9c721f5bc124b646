package analysis

import (
	"net/http"

	"repro/internal/trace"
)

// LiveAPI serves the streaming engine's figures, claims, sliding-window
// summary and ingest status over HTTP. Figure and claim responses are the
// *raw bytes* of the canonical renderer — the same bytes `cellanalyze`
// writes in batch mode — so the streaming=batch contract is observable
// with curl + cmp, not just inside tests.
//
//	GET /api/live/figures — canonical figures document (live state)
//	GET /api/live/claims  — claims scorecard (live state)
//	GET /api/live/window  — sliding-window summary
//	GET /api/live/status  — ingest accounting (events, shed, resyncs)
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
}

func (a *LiveAPI) writeRendered(w http.ResponseWriter, b []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
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
