package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around that call. Spans of one batch share (Device, Seq); Parent is
// the id of the span that caused this one (0: none). Times are
// nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Device uint64 `json:"device"`
	Seq    uint64 `json:"seq"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op, so the load generator has one
// code path and the end-to-end numbers pay for no tracing.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent int, device, seq uint64) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, Start: now, Parent: parent, Device: device, Seq: seq})
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, indexed by span id-1, each span's duration minus the
// part of its interval that its child spans cover (overlapping children
// counted once, children clipped to the parent's interval). Span ids are
// dense: spans[i].ID == i+1.
func selfTimes(spans []span) []int64 {
	out := make([]int64, len(spans))
	order := make([]int, 0, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		if s.Parent != 0 {
			order = append(order, i)
		}
	}
	// Group children by parent, each group in start order, then sweep.
	sort.Slice(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.Parent != y.Parent {
			return x.Parent < y.Parent
		}
		return x.Start < y.Start
	})
	var edge int64
	for n, i := range order {
		k := &spans[i]
		p := &spans[k.Parent-1]
		if n == 0 || spans[order[n-1]].Parent != k.Parent {
			edge = p.Start
		}
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			out[k.Parent-1] -= hi - lo
			edge = hi
		}
	}
	return out
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload      string           `json:"workload"`
	Seed          int64            `json:"seed"`
	SpansRecorded int              `json:"spans_recorded"`
	SampleEvery   int              `json:"sample_every"`
	TotalNs       map[string]int64 `json:"total_ns_by_name"`
	SelfNs        map[string]int64 `json:"self_ns_by_name"`
	Count         map[string]int   `json:"count_by_name"`
	Spans         []span           `json:"spans"`
}

// maxSpansWritten bounds the trace file: the totals cover every span, the
// span list keeps whole batch trees, one batch in SampleEvery.
const maxSpansWritten = 40000

func buildTraceFile(workload string, seed int64, spans []span) traceFile {
	tf := traceFile{
		Workload: workload, Seed: seed, SpansRecorded: len(spans), SampleEvery: 1,
		TotalNs: map[string]int64{}, SelfNs: map[string]int64{}, Count: map[string]int{},
	}
	self := selfTimes(spans)
	for _, s := range spans {
		tf.TotalNs[s.Name] += s.End - s.Start
		tf.SelfNs[s.Name] += self[s.ID-1]
		tf.Count[s.Name]++
	}
	if len(spans) > maxSpansWritten {
		tf.SampleEvery = (len(spans) + maxSpansWritten - 1) / maxSpansWritten
	}
	// Keep every SampleEvery-th root and its descendants (children are
	// always recorded after their parent, so one forward sweep suffices).
	keep := make([]bool, len(spans)+1)
	root := 0
	for _, s := range spans {
		if s.Parent == 0 {
			keep[s.ID] = root%tf.SampleEvery == 0
			root++
		} else {
			keep[s.ID] = keep[s.Parent]
		}
		if keep[s.ID] {
			tf.Spans = append(tf.Spans, s)
		}
	}
	return tf
}

func writeTraceFile(path string, tf traceFile) error {
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
