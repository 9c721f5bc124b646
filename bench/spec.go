package main

import "encoding/json"

// mix is one workload: a traffic mix driven through the whole deployed
// pipeline (simulate → v3 upload → collector → segment store → streaming
// engine → queries → batch pass → reboot from disk). The benchmark contract
// has every run report every end-to-end metric, never as 0, so every mix
// runs every stage; the mixes differ in which layer the load leans on, so
// an optimisation shows on the mix that exercises its mechanism and
// predicts "no change" on the ones that bypass it. The issue's fourth
// workload, simulate_analyze (fleet.Run and the batch pass only: no
// network, no store), cannot exist under that contract — it has no ack,
// query or replay to report — and a version of it that ingests as well
// measured the same as ingest_bulk; the simulator and the batch pass are
// timed on every mix instead (setup_s, batch_pass_events_per_s).
type mix struct {
	name, why string
	// devicesPerSec and eventsPerSec turn --seconds into a fixed amount of
	// work: the pool is fleet.Run over devicesPerSec*seconds devices, and a
	// timed repetition uploads eventsPerSec*seconds events, cycling through
	// the pool's frames as often as that takes. The work is therefore the
	// same on every machine, every seed sends the same volume (a seed moves
	// the pool's size by ±15%), and counts repeat exactly for one seed.
	devicesPerSec int
	eventsPerSec  int
	reps          int  // timed repetitions, each on a fresh collector, store dir and engine; a metric is the centre over them
	batch         int  // events per uploaded frame
	collectors    int  // 1, or N behind ring.StartFleet
	churn         int  // frames per uploader identity before it closes and a new one dials; 0: long-lived
	querier       bool // one uploader is replaced by a closed-loop light-mix querier at full speed (the dashboard poller that query_p50_ms reads runs on every mix)
	byDevice      bool // frames hold one device's events (a phone's upload) instead of a time-ordered shard slice
}

var mixes = []mix{
	{
		name:          "ingest_bulk",
		why:           "512-event frames from long-lived uploaders into one collector: bytes-per-event work (v3 codec, store append, dataset copy, stream apply) dominates",
		devicesPerSec: 1000, eventsPerSec: 80000, reps: 14, batch: 512, collectors: 1,
	},
	{
		name:          "ingest_small",
		why:           "16-event single-device frames, a new dial every 64 frames, 3 collectors behind the ring: per-frame fixed cost (dial, gate, write, ack, ring lookup) dominates",
		devicesPerSec: 1000, eventsPerSec: 100000, reps: 6, batch: 16, collectors: 3, churn: 64, byDevice: true,
	},
	{
		name:          "query_under_ingest",
		why:           "bulk ingest with one uploader replaced by a closed-loop HTTP querier: reads beside writes, so lock hold time on either side shows on the other",
		devicesPerSec: 1000, eventsPerSec: 80000, reps: 10, batch: 512, collectors: 1, querier: true,
	},
}

func mixByName(name string) (mix, bool) {
	for _, m := range mixes {
		if m.name == name {
			return m, true
		}
	}
	return mix{}, false
}

// size is the amount of work one invocation does.
type size struct {
	devices    int // pool fleet size
	events     int // events uploaded per timed repetition
	warmEvents int // events uploaded by the untimed warm-up repetition
	reps       int // timed repetitions
	setups     int // times the set-up is repeated; setup_s is the median
}

func (m mix) sized(seconds int) size {
	return size{
		devices: m.devicesPerSec * seconds, events: m.eventsPerSec * seconds, warmEvents: 15000 * seconds,
		reps: m.reps, setups: 3,
	}
}

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression (0 for per-layer metrics, which have none). Moves
// names the end-to-end metric a per-layer metric is expected to move, and
// where — the interaction list, written down before measuring.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
}

// endToEnd is what a user of the pipeline sees. Three of the issue's
// fifteen are not in this list. failed_ops_ratio is carried by the result
// line's attempted/failed counts (its healthy value is 0, which a bounded
// relative metric cannot hold). ack_p99_ms sits on the cliff of the ack
// distribution (p98 ≈ 1.7 ms, p99 ≈ 4 ms, moving 2.3–4.5 ms between
// identical runs), and simulate_events_per_s moves with the seed more than
// with the code (ten seeds alone on a quiet machine: 162–191 k events/s and
// one at 89 k, 11.6% quartile spread; the contract takes spread across
// seeds): neither repeats within any allowed bound, so by the issue's rule
// they are reported per layer, as uploader.ack_p99_ms and
// fleet.run_ns_per_event. The simulator's end-to-end gate is setup_s, whose
// spread the contract exempts for this reason.
//
// Bounds. A bound below what the machine does to an unchanged binary turns
// every comparison into "unresolved" or a false "worse". The reference
// sandbox (a 2-vCPU VM on a shared host) drifts in speed by 30–50% over an
// evening, so the wall-clock metrics are reported at reference machine
// speed (calib.go), which brings their run-to-run quartile spread from
// 4–25% down to 2–8%. They carry 0.25, the contract's ceiling, and not the
// 0.10–0.15 the issue proposed: the acceptance rule wants each spread under
// a third of its bound, and 5% is less than the latency medians of the
// saturated mixes repeat to; moving them to the per-layer list instead, as
// the issue's rule would have it, would leave no end-to-end latency at all.
// The counts do not depend on the clock. The byte counts repeat exactly for
// one seed, but the contract takes their spread across seeds, where the
// event mix moves them by 0.4–0.8%: 0.03 is the tightest bound a third of
// which clears that. allocs_per_event counts the whole process, the
// full-speed querier included, whose request count follows the clock (3–5%
// spread). README.md has the measurements.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "pipeline_events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "wire_bytes_per_event", Unit: "B", Better: "lower", Bound: 0.03},
	{Name: "disk_bytes_per_event", Unit: "B", Better: "lower", Bound: 0.03},
	{Name: "allocs_per_event", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "retained_bytes_per_event", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "replay_events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "live_figures_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "batch_pass_events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// perLayer is the per-module budget, measured only by the traced run
// (--trace 1): spans around the calls into each layer, counters read at
// the same boundaries, and isolation passes that feed the workload's own
// frames straight into one layer's public function from one goroutine.
var perLayer = []metricDef{
	{Name: "fleet.run_ns_per_event", Unit: "ns", Better: "lower", Layer: "fleet", Moves: "setup_s on every mix (the inverse of the issue's simulate_events_per_s); nothing else"},
	{Name: "fleet.allocs_per_event", Unit: "count", Better: "lower", Layer: "fleet", Moves: "setup_s"},

	{Name: "wirev3.encode_ns_per_event", Unit: "ns", Better: "lower", Layer: "trace.wirev3", Moves: "ingest_events_per_s on ingest_bulk and query_under_ingest; little on ingest_small"},
	{Name: "wirev3.decode_ns_per_event", Unit: "ns", Better: "lower", Layer: "trace.wirev3", Moves: "ingest_events_per_s and replay_events_per_s on the 512-event mixes"},
	{Name: "wirev3.encode_allocs_per_batch", Unit: "count", Better: "lower", Layer: "trace.wirev3", Moves: "allocs_per_event, chiefly on ingest_small (per-frame)"},
	{Name: "wirev3.decode_allocs_per_batch", Unit: "count", Better: "lower", Layer: "trace.wirev3", Moves: "allocs_per_event, chiefly on ingest_small (per-frame)"},
	{Name: "wirev3.frame_bytes_per_event", Unit: "B", Better: "lower", Layer: "trace.wirev3", Moves: "wire_bytes_per_event and disk_bytes_per_event on every mix (the store writes the same frames)"},

	{Name: "uploader.record_ns_per_event", Unit: "ns", Better: "lower", Layer: "trace.uploader", Moves: "ingest_events_per_s (generator side)"},
	{Name: "uploader.flush_ns_per_batch", Unit: "ns", Better: "lower", Layer: "trace.uploader", Moves: "ack_p50_ms"},
	{Name: "uploader.ack_p99_ms", Unit: "ms", Better: "lower", Layer: "trace.uploader", Moves: "the tail behind ack_p50_ms: median over ten equal time windows of each window's p99; seals, checkpoints and GC assists land here"},
	{Name: "uploader.dials", Unit: "count", Better: "lower", Layer: "trace.uploader", Moves: "ack_p50_ms and ingest_events_per_s on ingest_small only"},
	{Name: "uploader.flush_retries", Unit: "count", Better: "lower", Layer: "trace.uploader", Moves: "failed count; uploader.ack_p99_ms"},
	{Name: "uploader.reroutes", Unit: "count", Better: "lower", Layer: "trace.uploader", Moves: "uploader.ack_p99_ms on ingest_small"},

	{Name: "collector.send_to_admit_p50_us", Unit: "us", Better: "lower", Layer: "trace.collector", Moves: "ack_p50_ms"},
	{Name: "collector.admit_to_ack_p50_us", Unit: "us", Better: "lower", Layer: "trace.collector", Moves: "ack_p50_ms"},
	{Name: "collector.batches", Unit: "count", Better: "higher", Layer: "trace.collector", Moves: "count only: frames admitted in the traced repetition"},
	{Name: "collector.rx_bytes", Unit: "B", Better: "lower", Layer: "trace.collector", Moves: "wire_bytes_per_event"},
	{Name: "collector.redirects", Unit: "count", Better: "lower", Layer: "trace.collector", Moves: "uploader.ack_p99_ms on ingest_small"},
	{Name: "collector.residual_ns_per_event", Unit: "ns", Better: "lower", Layer: "trace.collector", Moves: "ack_p50_ms and ingest_events_per_s on ingest_small, where it should be the largest share (socket, gate, ack, scheduling)"},

	{Name: "segstore.append_ns_per_event", Unit: "ns", Better: "lower", Layer: "trace.segstore", Moves: "ingest_events_per_s on the 512-event mixes"},
	{Name: "segstore.append_p50_us", Unit: "us", Better: "lower", Layer: "trace.segstore", Moves: "ack_p50_ms; per frame, so chiefly ingest_small"},
	{Name: "segstore.append_p99_us", Unit: "us", Better: "lower", Layer: "trace.segstore", Moves: "uploader.ack_p99_ms (seal + checkpoint land here)"},
	{Name: "segstore.checkpoint_ms", Unit: "ms", Better: "lower", Layer: "trace.segstore", Moves: "uploader.ack_p99_ms; grows with identities, so ingest_small"},
	{Name: "segstore.segments_sealed", Unit: "count", Better: "lower", Layer: "trace.segstore", Moves: "count only; follows disk_bytes_per_event"},
	{Name: "segstore.bytes_written", Unit: "B", Better: "lower", Layer: "trace.segstore", Moves: "disk_bytes_per_event"},
	{Name: "segstore.open_ms", Unit: "ms", Better: "lower", Layer: "trace.segstore", Moves: "replay_events_per_s, setup_s"},
	{Name: "segstore.replay_ns_per_event", Unit: "ns", Better: "lower", Layer: "trace.segstore", Moves: "replay_events_per_s"},
	{Name: "segstore.read_segment_ns_per_event", Unit: "ns", Better: "lower", Layer: "trace.segstore", Moves: "query_p50_ms (segment events query)"},

	{Name: "dataset.append_ns_per_event", Unit: "ns", Better: "lower", Layer: "trace.dataset", Moves: "ingest_events_per_s, replay_events_per_s; with process.peak_rss_mb, retained_bytes_per_event"},
	{Name: "dataset.digest_ns_per_event", Unit: "ns", Better: "lower", Layer: "trace.dataset", Moves: "httpapi.digest_ms only"},

	{Name: "ring.lookup_ns", Unit: "ns", Better: "lower", Layer: "trace/ring", Moves: "ingest_events_per_s on ingest_small only (one Target per send); zero on the 1-collector mixes"},
	{Name: "ring.target_ns", Unit: "ns", Better: "lower", Layer: "trace/ring", Moves: "ingest_events_per_s on ingest_small only"},
	{Name: "ring.remove_ms", Unit: "ms", Better: "lower", Layer: "trace/ring", Moves: "nothing end to end today (no membership change in any mix)"},
	{Name: "ring.moved_share", Unit: "ratio", Better: "lower", Layer: "trace/ring", Moves: "nothing end to end today"},
	{Name: "ring.owner_skew", Unit: "ratio", Better: "lower", Layer: "trace/ring", Moves: "ingest_events_per_s on ingest_small (the busiest member bounds it)"},

	{Name: "streaming.ingest_call_ns_per_chunk", Unit: "ns", Better: "lower", Layer: "analysis.streaming", Moves: "ack_p50_ms (runs on the serve goroutine before the ack)"},
	{Name: "streaming.apply_ns_per_event", Unit: "ns", Better: "lower", Layer: "analysis.streaming", Moves: "pipeline_events_per_s on every mix; ingest_events_per_s too, because the applier shares the cores"},
	{Name: "streaming.drain_wait_ms", Unit: "ms", Better: "lower", Layer: "analysis.streaming", Moves: "pipeline_events_per_s"},
	{Name: "streaming.max_queue_depth", Unit: "count", Better: "lower", Layer: "analysis.streaming", Moves: "pipeline_events_per_s (1024 means shedding)"},
	{Name: "streaming.shed_chunks", Unit: "count", Better: "lower", Layer: "analysis.streaming", Moves: "pipeline_events_per_s, chiefly on ingest_small"},
	{Name: "streaming.resyncs", Unit: "count", Better: "lower", Layer: "analysis.streaming", Moves: "pipeline_events_per_s, replay_events_per_s"},
	{Name: "streaming.sync_ms", Unit: "ms", Better: "lower", Layer: "analysis.streaming", Moves: "pipeline_events_per_s, replay_events_per_s"},
	{Name: "streaming.late_drops", Unit: "count", Better: "lower", Layer: "analysis.streaming", Moves: "count only (window accounting)"},

	{Name: "pass.new_ns_per_event", Unit: "ns", Better: "lower", Layer: "analysis.pass", Moves: "batch_pass_events_per_s"},
	{Name: "pass.figures_json_ms", Unit: "ms", Better: "lower", Layer: "analysis.pass", Moves: "batch_pass_events_per_s; live_figures_ms (same visitors)"},
	{Name: "pass.claims_json_ms", Unit: "ms", Better: "lower", Layer: "analysis.pass", Moves: "batch_pass_events_per_s"},
	{Name: "pass.allocs_per_event", Unit: "count", Better: "lower", Layer: "analysis.pass", Moves: "batch_pass_events_per_s"},

	{Name: "liveapi.status_p50_ms", Unit: "ms", Better: "lower", Layer: "analysis.liveapi", Moves: "query_p50_ms"},
	{Name: "liveapi.window_p50_ms", Unit: "ms", Better: "lower", Layer: "analysis.liveapi", Moves: "query_p50_ms"},
	{Name: "liveapi.figures_p50_ms", Unit: "ms", Better: "lower", Layer: "analysis.liveapi", Moves: "live_figures_ms"},
	{Name: "storeapi.index_p50_ms", Unit: "ms", Better: "lower", Layer: "trace.storeapi", Moves: "query_p50_ms on the 1-collector mixes"},
	{Name: "storeapi.events_p50_ms", Unit: "ms", Better: "lower", Layer: "trace.storeapi", Moves: "query_p50_ms on the 1-collector mixes"},
	{Name: "storeapi.data_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "trace.storeapi", Moves: "nothing end to end today (bulk segment download)"},
	{Name: "mergeapi.index_p50_ms", Unit: "ms", Better: "lower", Layer: "trace.mergeapi", Moves: "query_p50_ms on ingest_small"},
	{Name: "mergeapi.events_p50_ms", Unit: "ms", Better: "lower", Layer: "trace.mergeapi", Moves: "query_p50_ms on ingest_small"},
	{Name: "httpapi.digest_ms", Unit: "ms", Better: "lower", Layer: "trace.httpapi", Moves: "nothing end to end (operator check)"},
	{Name: "query.light_p99_ms", Unit: "ms", Better: "lower", Layer: "http", Moves: "tail of query_p50_ms; through lock hold time, ingest_events_per_s on query_under_ingest"},
	{Name: "query.load_requests_per_s", Unit: "1/s", Better: "higher", Layer: "http", Moves: "query_under_ingest only (0 elsewhere): what the full-speed querier completes; an ingest change that starves readers lowers it before query_p50_ms rises"},

	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "process", Moves: "retained_bytes_per_event"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower", Layer: "process", Moves: "allocs_per_event, uploader.ack_p99_ms"},
	{Name: "process.gc_pause_total_ms", Unit: "ms", Better: "lower", Layer: "process", Moves: "uploader.ack_p99_ms"},
	{Name: "process.cpu_s", Unit: "s", Better: "lower", Layer: "process", Moves: "every throughput metric"},
	{Name: "process.cpu_util", Unit: "ratio", Better: "higher", Layer: "process", Moves: "below 1 means waiting, not computing, bounds throughput"},

	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher", Layer: "bench", Moves: "traced / untraced ingest_events_per_s; how far the traced numbers can be trusted"},
	{Name: "bench.generator_idle_share", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "share of uploader time outside Record/Flush; a starved generator understates every ingest metric"},
	{Name: "bench.machine_speed", Unit: "ratio", Better: "higher", Layer: "bench", Moves: "the reference kernel's rate during the traced repetition over its rate on the reference sandbox; per-layer times are as measured, divide or multiply by it to compare two traced runs"},
}

// runSeconds is the --seconds the driver passes: the size at which the
// bounds above were validated.
const runSeconds = 10

// benchmarkJSON renders the repository's BENCHMARK.json from the tables
// above, so the contract file cannot drift from what the program reports.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, m := range mixes {
		doc.Workloads = append(doc.Workloads, workload{m.name, m.why})
	}
	for i := range endToEnd {
		d := &endToEnd[i]
		doc.EndToEnd = append(doc.EndToEnd, metric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	raw, _ := json.MarshalIndent(doc, "", "  ")
	return append(raw, '\n')
}
