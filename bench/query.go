package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// querier is the closed-loop HTTP client: it sends its next request only
// after the previous response has been read to the end. The light mix
// cycles the cheap operator endpoints; /api/live/figures is the heavy
// query and is only sent at rest.
type querier struct {
	client    *http.Client
	base      string
	rec       *recorder
	ms        map[string][]float64 // latency per endpoint
	attempted int
	failed    int
	segQuery  string // query string naming the newest sealed segment; "" until one exists
}

func newQuerier(base string, rec *recorder) *querier {
	return &querier{
		client: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		base:   base, rec: rec, ms: make(map[string][]float64),
	}
}

func (q *querier) close() { q.client.CloseIdleConnections() }

// get issues one request, reads the whole body, and records its latency
// under name. A transport error or a non-200 status counts as failed.
func (q *querier) get(name, path string) []byte {
	q.attempted++
	id := q.rec.begin("http."+name, 0, 0, 0)
	t0 := time.Now()
	resp, err := q.client.Get(q.base + path)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	ms := float64(time.Since(t0)) / 1e6
	q.rec.end(id)
	if err != nil {
		q.failed++
		return nil
	}
	q.ms[name] = append(q.ms[name], ms)
	return body
}

// cycle sends one round of the light mix: live status, sliding window,
// segment index, and 256 decoded events of the newest sealed segment (once
// there is one).
func (q *querier) cycle() {
	q.get("status", "/api/live/status")
	q.get("window", "/api/live/window")
	index := q.get("segments", "/api/segments")
	if q.segQuery != "" {
		q.get("segment_events", "/api/segments/events?"+q.segQuery+"&limit=256")
	}
	q.noteSealed(index)
}

// noteSealed remembers the newest sealed segment of an index response
// (StoreAPI rows carry no collector name, MergeAPI rows do).
func (q *querier) noteSealed(index []byte) {
	var rows []struct {
		Collector string `json:"collector"`
		ID        uint64 `json:"id"`
		Sealed    bool   `json:"sealed"`
	}
	if json.Unmarshal(index, &rows) != nil {
		return
	}
	for _, r := range rows {
		if !r.Sealed {
			continue
		}
		q.segQuery = fmt.Sprintf("id=%d", r.ID)
		if r.Collector != "" {
			q.segQuery = fmt.Sprintf("collector=%s&id=%d", r.Collector, r.ID)
		}
	}
}

var lightMix = []string{"status", "window", "segments", "segment_events"}

// lightP50 is the median latency of a light-mix request: the median of each
// of the four endpoints, averaged. The median over all requests pooled sits
// where the three cheap endpoints' tail meets the one that reads a segment
// — a knee — and read 13% run-to-run spread where this reads 4–10%.
func (q *querier) lightP50() float64 {
	sum, n := 0.0, 0
	for _, name := range lightMix {
		if len(q.ms[name]) > 0 { // no segment is sealed yet at toy sizes
			sum += median(q.ms[name])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// lightLatencies returns the latency of every light-mix request sent.
func (q *querier) lightLatencies() []float64 {
	var all []float64
	for _, name := range lightMix {
		all = append(all, q.ms[name]...)
	}
	return all
}
