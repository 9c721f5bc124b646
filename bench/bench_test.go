package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/failure"
)

// toy is a size at which all three workloads finish in a few seconds: the
// smoke test keeps the benchmark compiling and its output checks passing
// without timing anything.
var toy = size{devices: 1000, events: 30000, warmEvents: 10000, reps: 1, setups: 1}

func TestSmokeAllWorkloads(t *testing.T) {
	wantChecks := []string{
		"simulator_figures_hash", "stored_len", "gate_counters", "collector_batches", "segment_index_events", "I4_stored_digest",
		"I5_live_equals_batch", "I6_I7_segment_replay_digest", "replay_len", "replay_figures_equal_batch",
	}
	for _, m := range mixes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			out, err := runWorkload(m, toy, 11, 1, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d checks=%+v", out.Correct, out.Attempted, out.Failed, out.Checks)
			}
			if len(out.Metrics) != len(endToEnd) {
				t.Errorf("got %d end-to-end metrics, want %d", len(out.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				v, ok := out.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("metric %s = %+v (present=%v): want finite, positive, unit %s", d.Name, v, ok, d.Unit)
				}
			}
			ran := map[string]int{}
			for _, c := range out.Checks {
				ran[c.Name]++
			}
			for _, name := range wantChecks {
				if ran[name] == 0 {
					t.Errorf("output check %s never ran", name)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced path once, on the mix with the most
// moving parts (ring, churn, merged queries).
func TestSmokeTraced(t *testing.T) {
	m, _ := mixByName("ingest_small")
	dir := t.TempDir()
	out, err := runWorkload(m, toy, 11, 1, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Fatalf("correct=%v failed=%d checks=%+v", out.Correct, out.Failed, out.Checks)
	}
	if len(out.Metrics) != len(perLayer) {
		t.Errorf("got %d per-layer metrics, want %d", len(out.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		v, ok := out.Metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
			t.Errorf("metric %s = %+v (present=%v): want finite and non-negative", d.Name, v, ok)
		}
	}
	// Counters that must have counted something on this mix.
	for _, name := range []string{"uploader.dials", "collector.batches", "collector.rx_bytes", "wirev3.frame_bytes_per_event", "segstore.bytes_written", "ring.lookup_ns", "mergeapi.index_p50_ms"} {
		if out.Metrics[name].Value <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, out.Metrics[name].Value)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, m.name+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"frame", "uploader.record", "uploader.flush", "streaming.ingest", "restart", "segstore.replay_batch"} {
		if tf.Count[name] == 0 {
			t.Errorf("trace holds no %q span; counts %v", name, tf.Count)
		}
	}
	if tf.Count["streaming.ingest"] != tf.Count["uploader.flush"] {
		t.Errorf("%d admits for %d flushes", tf.Count["streaming.ingest"], tf.Count["uploader.flush"])
	}
	if len(tf.Spans) == 0 || tf.SpansRecorded < len(tf.Spans) {
		t.Errorf("spans written %d, recorded %d", len(tf.Spans), tf.SpansRecorded)
	}
}

// TestFramesStayWithOneUploader pins what span correlation rests on: however
// often a repetition wraps round the pool, a pool frame is sent by one
// goroutine only, and every frame is sent.
func TestFramesStayWithOneUploader(t *testing.T) {
	for _, c := range []struct{ frames, nUp int }{{7, 2}, {719, 2}, {10, 4}, {4, 4}, {5, 1}} {
		p := &pool{events: make([]failure.Event, c.frames)}
		for i := range p.events {
			p.batches = append(p.batches, p.events[i:i+1])
		}
		owner := make(map[*failure.Event]int)
		for k := 0; k < 5*c.frames; k++ {
			f := &p.frame(k, c.nUp)[0]
			if g, seen := owner[f]; seen && g != k%c.nUp {
				t.Fatalf("%d frames, %d uploaders: frame sent by goroutines %d and %d", c.frames, c.nUp, g, k%c.nUp)
			}
			owner[f] = k % c.nUp
		}
		if len(owner) != c.frames {
			t.Errorf("%d frames, %d uploaders: only %d frames were ever sent", c.frames, c.nUp, len(owner))
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "frame", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 30, Parent: 1},
		{ID: 3, Name: "b", Start: 20, End: 50, Parent: 1},  // overlaps a: only 30..50 is new cover
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1}, // clipped to the parent's end
		{ID: 5, Name: "d", Start: 22, End: 28, Parent: 3},  // a grandchild covers its parent only
		{ID: 6, Name: "lone", Start: 5, End: 9},
	}
	want := []int64{100 - (20 + 20 + 10), 20, 30 - 6, 30, 6, 4}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
}

func TestTraceFileSampling(t *testing.T) {
	var spans []span
	for i := 0; i < maxSpansWritten; i++ { // roots with one child each: twice the cap
		root := len(spans) + 1
		spans = append(spans, span{ID: root, Name: "frame", Start: int64(i), End: int64(i + 10)})
		spans = append(spans, span{ID: root + 1, Name: "uploader.flush", Start: int64(i + 1), End: int64(i + 9), Parent: root})
	}
	tf := buildTraceFile("w", 1, spans)
	if tf.SampleEvery != 2 || len(tf.Spans) != maxSpansWritten || tf.SpansRecorded != len(spans) {
		t.Fatalf("sample_every=%d written=%d recorded=%d", tf.SampleEvery, len(tf.Spans), tf.SpansRecorded)
	}
	for i := 0; i < len(tf.Spans); i += 2 {
		if tf.Spans[i].Parent != 0 || tf.Spans[i+1].Parent != tf.Spans[i].ID {
			t.Fatalf("span %d: a sampled root must keep its whole tree", i)
		}
	}
	if tf.SelfNs["frame"] != int64(maxSpansWritten)*2 || tf.TotalNs["uploader.flush"] != int64(maxSpansWritten)*8 {
		t.Errorf("totals must cover every span: self %v total %v", tf.SelfNs, tf.TotalNs)
	}
}

func TestWindowedP99(t *testing.T) {
	// Ten windows of 100 samples at 1 ms; one window holds a 500 ms stall
	// in five of its samples. A plain p99 over all 1000 samples reads the
	// stall; the median of per-window p99s does not.
	var at, lat []float64
	for w := 0; w < 10; w++ {
		for i := 0; i < 100; i++ {
			at = append(at, float64(w)+float64(i)/100)
			v := 1.0
			if w == 3 && i < 5 {
				v = 500
			}
			lat = append(lat, v)
		}
	}
	if got := windowedP99(at, lat, 10, 10); got != 1 {
		t.Errorf("windowed p99 = %v, want 1", got)
	}
	if got := windowedP99(at[:100], lat[:100], 10, 10); got != 1 {
		t.Errorf("a single filled window: got %v, want 1", got)
	}
	if got := windowedP99(nil, nil, 10, 10); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
}

// TestWallClockMetricsAtReferenceSpeed pins what the speed readings are for:
// the same work on a machine 0.7 or 1.3 times as fast takes 1/0.7 or 1/1.3
// as long, and must report the same end-to-end numbers.
func TestWallClockMetricsAtReferenceSpeed(t *testing.T) {
	metrics := func(speed float64) map[string]value {
		rep := func(work float64) *repResult {
			sec := work / speed
			return &repResult{
				events: 1000, ingestSec: sec, pipelineSec: 1.1 * sec, replaySec: 0.3 * sec, passSec: 0.5 * sec,
				ackMs: []float64{0.4 * sec, 0.5 * sec, 2 * sec}, wireBytes: 33000, diskBytes: 33100, mallocs: 80, retained: 153000,
				q:     &querier{ms: map[string][]float64{"status": {0.2 * sec}, "figures": {100 * sec}}},
				speed: speed,
			}
		}
		out := &outcome{Metrics: map[string]value{}, Timings: map[string]timing{}}
		endToEndMetrics(out, []*repResult{rep(1), rep(1.2), rep(0.9)}, []float64{2 / speed}, []float64{speed})
		if got := out.Info.MachineSpeed; math.Abs(got-speed) > 1e-12 {
			t.Errorf("machine speed %v reported as %v", speed, got)
		}
		if got := out.Timings["raw.ingest_events_per_s"].Median; math.Abs(got-1000*speed) > 1e-6 {
			t.Errorf("at speed %v the unscaled ingest rate reads %v, want %v", speed, got, 1000*speed)
		}
		return out.Metrics
	}
	slow, ref, fast := metrics(0.7), metrics(1), metrics(1.3)
	for _, d := range endToEnd {
		want := ref[d.Name].Value
		for _, got := range []float64{slow[d.Name].Value, fast[d.Name].Value} {
			if want <= 0 || math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s reads %v off the reference speed, %v at it", d.Name, got, want)
			}
		}
	}
}

func TestMachineSpeed(t *testing.T) {
	if s := machineSpeed(5 * time.Millisecond); s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		t.Errorf("machineSpeed = %v, want a positive number", s)
	}
	m := speedometer{readings: []float64{0.8, 1.0, 1.2}}
	if got := m.speed(); math.Abs(got-1) > 1e-12 {
		t.Errorf("speed of three readings = %v, want their mean 1", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{{19, 0, false}, {100, 90, true}, {999, 90, true}, {1000, 99, true}, {10000, 99.9, true}, {1000000, 99.99, true}} {
		if p, ok := topPercentile(c.n); p != c.p || ok != c.ok {
			t.Errorf("topPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "ingest_events_per_s", Better: "higher", Bound: 0.10}
	stat := func(median, spread float64) *metricStat { return &metricStat{Median: median, Spread: spread} }
	for _, c := range []struct {
		name     string
		old, new *metricStat
		want     string
	}{
		{"within bound", stat(100, 0.02), stat(95, 0.02), "ok"},
		{"better", stat(100, 0.02), stat(130, 0.02), "ok"},
		{"beyond bound", stat(100, 0.02), stat(85, 0.02), "worse"},
		{"too noisy to tell", stat(100, 0.02), stat(85, 0.2), "unresolved"},
	} {
		if _, got := verdict(d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	// End to end through files: a regression on one pair must fail the
	// comparison, an identical pair of files must pass it.
	mk := func(ingest float64) *resultFile {
		rf := &resultFile{Workloads: map[string]*workloadStats{}}
		for _, m := range mixes {
			ws := &workloadStats{Attempted: 10, Correct: true, Metrics: map[string]*metricStat{}}
			for _, d := range endToEnd {
				ws.Metrics[d.Name] = stat(100, 0.01)
			}
			ws.Metrics["ingest_events_per_s"] = stat(ingest, 0.01)
			rf.Workloads[m.name] = ws
		}
		return rf
	}
	dir := t.TempDir()
	write := func(name string, rf *resultFile) string {
		raw, _ := json.Marshal(rf)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", mk(100)), write("b.json", mk(100)), write("c.json", mk(60))
	var sink bytes.Buffer
	if code := compareFiles(&sink, base, same); code != 0 {
		t.Errorf("identical results: exit %d\n%s", code, sink.String())
	}
	sink.Reset()
	if code := compareFiles(&sink, base, slow); code == 0 || !bytes.Contains(sink.Bytes(), []byte("worse")) {
		t.Errorf("a 40%% ingest drop: exit %d\n%s", code, sink.String())
	}
}

// TestBenchmarkJSON pins the root BENCHMARK.json to the tables in spec.go
// and to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(mixes) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(mixes))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != mixes[i].name || w.Why != mixes[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d = %+v, spec has %q: %q", i, w, mixes[i].name, mixes[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, spec has %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			name(g.Name)
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || !unitRE.MatchString(g.Unit) || (g.Better != "higher" && g.Better != "lower") {
				t.Errorf("%s[%d] = %+v, spec has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v, spec has %v", kind, i, g.Name, g.Bound, w.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(doc.EndToEnd), len(doc.PerLayer))
	}
	if !seen["setup_s"] {
		t.Error("the contract requires a setup_s metric")
	}
}
