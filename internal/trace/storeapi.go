package trace

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
)

// segmentID parses the mandatory id query parameter.
func segmentID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
	if err != nil || id == 0 {
		http.Error(w, "bad or missing segment id", http.StatusBadRequest)
		return 0, false
	}
	return id, true
}

// SegmentRow is one decoded event row in a segment-events response.
type SegmentRow struct {
	DeviceID uint64  `json:"device_id"`
	Seq      uint64  `json:"seq"`
	Kind     string  `json:"kind"`
	ISP      string  `json:"isp"`
	RAT      string  `json:"rat"`
	Level    int     `json:"level"`
	Cause    string  `json:"cause"`
	Duration float64 `json:"duration_s"`
}

// SegmentEventsResponse is the /api/segments/events envelope. Truncated
// reports that the row limit cut the read short — at least one more
// matching row remains in the segment — so a caller can tell a full page
// from an exhausted segment.
type SegmentEventsResponse struct {
	Rows      []SegmentRow `json:"rows"`
	Truncated bool         `json:"truncated"`
}

// eventsQuery is the parsed limit/device filter of the events endpoint.
type eventsQuery struct {
	limit    int
	device   uint64
	filtered bool
}

// parseEventsQuery validates limit and device; on failure it has already
// written the 400 response.
func parseEventsQuery(w http.ResponseWriter, r *http.Request) (eventsQuery, bool) {
	q := eventsQuery{limit: 100}
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > 100000 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return q, false
		}
		q.limit = n
	}
	if s := r.URL.Query().Get("device"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad device", http.StatusBadRequest)
			return q, false
		}
		q.device, q.filtered = n, true
	}
	return q, true
}

// segmentEvents decodes up to q.limit matching rows from sealed segment
// id. Truncated is set only when a matching event actually exists past
// the limit, not merely because the page came back full.
func segmentEvents(st *SegStore, id uint64, q eventsQuery) (SegmentEventsResponse, error) {
	resp := SegmentEventsResponse{Rows: []SegmentRow{}}
	err := st.ReadSegment(id, func(b *Batch) error {
		if q.filtered && b.DeviceID != q.device {
			return nil
		}
		for i := range b.Events {
			if len(resp.Rows) >= q.limit {
				resp.Truncated = true
				return errStoreAPIDone
			}
			e := &b.Events[i]
			resp.Rows = append(resp.Rows, SegmentRow{
				DeviceID: e.DeviceID, Seq: b.Seq, Kind: e.Kind.String(),
				ISP: e.ISP.String(), RAT: e.RAT.String(), Level: int(e.Level),
				Cause: e.Cause.String(), Duration: e.Duration.Seconds(),
			})
		}
		return nil
	})
	if err != nil && err != errStoreAPIDone {
		return resp, err
	}
	return resp, nil
}

// errStoreAPIDone stops a segment read early once the row limit fills.
var errStoreAPIDone = fmt.Errorf("trace: store api: done")

// streamSegment copies the whole frames of sealed segment id of st
// verbatim to the response.
func streamSegment(w http.ResponseWriter, st *SegStore, id uint64) {
	path, size, err := st.sealedPath(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.CopyN(w, f, size)
}

// ReplayInto returns an OpenSegStore callback that publishes each replayed
// batch to ds as one segment, so a replayed dataset holds the frames in
// file order, exactly as admission left them. Like admission it publishes
// the freshly decoded slice itself: anything else that sees the replayed
// batch must treat its events as read-only.
func ReplayInto(ds *Dataset) func(*Batch) {
	return func(b *Batch) { ds.Publish(b.Events) }
}
