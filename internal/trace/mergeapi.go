package trace

import (
	"cmp"
	"net/http"
	"net/url"
	"slices"
)

// StoreSource names one collector's segment store for merged queries.
// After a failover the dead collector's directory keeps appearing here,
// reopened read-only, so its sealed segments stay queryable alongside
// the survivors'. A source may be unnamed when it is the only one (see
// NewStoreAPI).
type StoreSource struct {
	Name  string
	Store *SegStore
}

// MergeAPI serves read-only JSON and binary views of one or several
// collectors' segment stores over HTTP as one index — the queryable half
// of the durable state, and the query tier of the collector fleet.
// Sealed segments are immutable files, so every handler reads straight
// from disk without coordinating with the append path: queries never
// block any collector's ingest, and ingest never blocks queries.
//
//	GET /api/segments                                        — the (device, seq range) → segment index across every source
//	GET /api/segments/events?collector=C&id=N[&device=D][&limit=K] — decoded rows from one sealed segment
//	GET /api/segments/data?collector=C&id=N                  — the raw v3 frames of one sealed segment
//
// Every index entry carries the owning collector's name, and the
// per-segment endpoints take it back as `collector`, because segment ids
// are only unique within one store; with exactly one source the
// parameter is optional, and an unnamed source's entries carry no name.
//
// The data endpoint streams the segment's whole frames verbatim: a client
// decodes them with the same ReadFrameRaw loop the store's replay uses, so
// "what the store holds" is re-derivable bit-for-bit without shipping run
// directories around.
//
// Sources are re-fetched per request, so membership changes (a death, an
// adopted read-only store, a restarted member's reopened store) are
// visible to the next query without re-registering routes.
type MergeAPI struct {
	sources func() []StoreSource
}

// NewMergeAPI builds the query layer over a dynamic source list. sources
// must be safe for concurrent calls; the slice it returns is only read.
func NewMergeAPI(sources func() []StoreSource) *MergeAPI {
	return &MergeAPI{sources: sources}
}

// NewStoreAPI serves a single segment store: a MergeAPI over one unnamed
// source, so index entries carry no collector name and the per-segment
// endpoints need only an id.
func NewStoreAPI(st *SegStore) *MergeAPI {
	one := []StoreSource{{Store: st}}
	return NewMergeAPI(func() []StoreSource { return one })
}

// Routes registers the API on mux under /api/segments.
func (a *MergeAPI) Routes(mux *http.ServeMux) {
	mux.HandleFunc("/api/segments", a.handleIndex)
	mux.HandleFunc("/api/segments/events", a.handleEvents)
	mux.HandleFunc("/api/segments/data", a.handleData)
}

// MergedSegmentInfo is one index entry: a segment plus the collector
// whose store holds it (absent for an unnamed source).
type MergedSegmentInfo struct {
	Collector string `json:"collector,omitempty"`
	SegmentInfo
}

func (a *MergeAPI) handleIndex(w http.ResponseWriter, r *http.Request) {
	byName := func(a, b StoreSource) int { return cmp.Compare(a.Name, b.Name) }
	srcs := a.sources()
	if !slices.IsSortedFunc(srcs, byName) {
		// Sort a copy: the callback may hand every request the same slice.
		srcs = slices.Clone(srcs)
		slices.SortFunc(srcs, byName)
	}
	segs := make([][]SegmentInfo, len(srcs))
	n := 0
	for i, src := range srcs {
		segs[i] = src.Store.Segments()
		n += len(segs[i])
	}
	out := make([]MergedSegmentInfo, 0, n)
	for i, src := range srcs {
		for _, info := range segs[i] {
			out = append(out, MergedSegmentInfo{Collector: src.Name, SegmentInfo: info})
		}
	}
	WriteJSON(w, out)
}

// resolve maps the collector and id parameters to a store and segment
// id; on failure it has already written the error response.
func (a *MergeAPI) resolve(w http.ResponseWriter, query url.Values) (*SegStore, uint64, bool) {
	srcs := a.sources()
	name := query.Get("collector")
	for _, src := range srcs {
		if src.Name == name || (name == "" && len(srcs) == 1) {
			id, ok := segmentID(w, query)
			return src.Store, id, ok
		}
	}
	if name == "" {
		http.Error(w, "missing collector", http.StatusBadRequest)
	} else {
		http.Error(w, "no collector "+name, http.StatusNotFound)
	}
	return nil, 0, false
}

func (a *MergeAPI) handleEvents(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	st, id, ok := a.resolve(w, query)
	if !ok {
		return
	}
	q, ok := parseEventsQuery(w, query)
	if !ok {
		return
	}
	resp, err := segmentEvents(st, id, q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	bp := getScratch(0)
	defer putScratch(bp)
	*bp = resp.appendJSON((*bp)[:0])
	WriteJSONBody(w, *bp)
}

func (a *MergeAPI) handleData(w http.ResponseWriter, r *http.Request) {
	st, id, ok := a.resolve(w, r.URL.Query())
	if !ok {
		return
	}
	streamSegment(w, st, id)
}
