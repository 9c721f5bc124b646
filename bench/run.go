package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
)

// value is one reported number, as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one invocation's full account: the contract's result line is
// cut from it, and -detail writes it whole.
type outcome struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]value  `json:"metrics"`
	Timings   map[string]timing `json:"timings"` // median, sample count and highest supported percentile of each timing
	Checks    []check           `json:"checks"`
	Info      runInfo           `json:"info"`
}

type runInfo struct {
	NProc        int     `json:"nproc"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Uploaders    int     `json:"uploaders"`
	Devices      int     `json:"devices"`
	PoolEvents   int     `json:"pool_events"`
	PoolFrames   int     `json:"pool_frames"`
	EventsPerRep int     `json:"events_per_rep"`
	Reps         int     `json:"reps"`
	Setups       int     `json:"setups"`
	WallSeconds  float64 `json:"wall_seconds"`
	// MachineSpeed is the median of the run's speed readings relative to
	// the reference sandbox (calib.go); the wall-clock end-to-end metrics
	// are reported at speed 1.
	MachineSpeed float64 `json:"machine_speed,omitempty"`
	// PhaseSeconds is where the invocation's wall time went: set-up,
	// warm-up, and the repetitions (timed, traced) with everything they
	// carry, and the isolation passes.
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	TraceFile    string             `json:"trace_file,omitempty"`
}

// retainedEstimate is the heap one admitted event is assumed to pin when
// the memory guard projects a repetition's footprint (measured: 150–175 B).
const retainedEstimate = 320

// runWorkload runs one mix at one size: repeated set-up, an untimed
// warm-up repetition carrying the canonical digest checks, then the timed
// repetitions (untraced) or one untraced + one traced repetition and the
// isolation passes (traced). Every store directory is created under
// outDir/tmp and removed again; the traced run leaves
// outDir/<workload>.trace.json.
func runWorkload(m mix, sz size, seed int64, seconds int, traced bool, outDir string) (*outcome, error) {
	tmp := filepath.Join(outDir, "tmp")
	wall := time.Now()
	out := &outcome{
		Workload: m.name, Seed: seed, Seconds: seconds, Traced: traced, Correct: true,
		Metrics: map[string]value{}, Timings: map[string]timing{},
		Info: runInfo{
			NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Uploaders: uploaders(), Devices: sz.devices, EventsPerRep: sz.events, Reps: sz.reps, Setups: sz.setups,
			PhaseSeconds: map[string]float64{},
		},
	}
	phase := func(name string, since time.Time) { out.Info.PhaseSeconds[name] += time.Since(since).Seconds() }
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	newDir := func(kind string) (string, error) { return os.MkdirTemp(tmp, m.name+"-"+kind+"-") }

	// --- set-up, repeated: generate the pool and boot the system once ---
	var p *pool
	var setupSec, setupSpeed, simNs, simAllocs []float64
	figureHashes := map[[sha256.Size]byte]bool{}
	for i := 0; i < sz.setups; i++ {
		p = nil // let the previous pool go before building the next
		var meter speedometer
		meter.read()
		t0 := time.Now()
		np, err := buildPool(m, sz, seed)
		if err != nil {
			return nil, err
		}
		dir, err := newDir("setup")
		if err != nil {
			return nil, err
		}
		sys, err := startSystem(m, np.ctx, dir, hooks{})
		if err == nil {
			err = sys.stop()
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sec := time.Since(t0).Seconds()
		meter.read()
		setupSec = append(setupSec, sec)
		setupSpeed = append(setupSpeed, meter.speed())
		simNs = append(simNs, np.simSec*1e9/float64(len(np.events)))
		simAllocs = append(simAllocs, float64(np.mallocs)/float64(len(np.events)))
		p = np
		// Outside the timed set-up: the batch figures of what was simulated.
		figures, err := analysis.NewPass(np.ctx).FiguresJSON(core.Catalogue())
		if err != nil {
			return nil, fmt.Errorf("set-up: batch figures: %w", err)
		}
		figureHashes[sha256.Sum256(figures)] = true
	}
	out.Info.PoolEvents, out.Info.PoolFrames = len(p.events), len(p.batches)
	phase("setup", wall)

	// Guard rail: a repetition pins its dataset, the engine's state and —
	// while the restart replays — a second copy of both.
	if need, have := int64(2*retainedEstimate*sz.events), memAvailableBytes(); have > 0 && have < need {
		return nil, fmt.Errorf("refusing to start: a repetition is projected to retain %d MB, %d MB are available", need>>20, have>>20)
	}

	absorb := func(r *repResult) {
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, c := range r.checks {
			if !c.OK {
				out.Correct = false
			}
		}
		out.Checks = append(out.Checks, r.checks...)
	}
	// The simulator is deterministic in its seed: every set-up's fleet.Run
	// must lead to the same figures, byte for byte.
	sim := &repResult{}
	sim.check("simulator_figures_hash", len(figureHashes) == 1, "%d set-ups of seed %d gave %d different figures", sz.setups, seed, len(figureHashes))
	absorb(sim)
	rep := func(kind string, o repOpts) (*repResult, error) {
		dir, err := newDir(kind)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		defer phase(kind, time.Now())
		r, err := runRep(m, p, dir, o)
		if err != nil {
			return nil, fmt.Errorf("%s repetition: %w", kind, err)
		}
		absorb(r)
		return r, nil
	}

	layers := map[string]float64{}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}

	// --- warm-up: one pass, untimed, with the canonical digest checks ---
	warm := repOpts{events: sz.warmEvents, canonical: true}
	if traced {
		warm.atRest = func(sys *system, r *repResult) error {
			ms, ok := digestMs(sys)
			r.attempted++
			if !ok {
				r.failed++
			}
			layers["httpapi.digest_ms"] = ms
			return nil
		}
	}
	if _, err := rep("warmup", warm); err != nil {
		return nil, err
	}

	timedOpts := repOpts{events: sz.events}
	var reps []*repResult
	n := sz.reps
	if traced {
		n = 1 // the untraced reference the tracing overhead is measured against
	}
	for i := 0; i < n; i++ {
		r, err := rep("rep", timedOpts)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}

	if !traced {
		endToEndMetrics(out, reps, setupSec, setupSpeed)
		out.Info.WallSeconds = time.Since(wall).Seconds()
		return out, nil
	}

	// --- traced repetition + isolation passes ---
	tracedOpts := timedOpts
	tracedOpts.rec = rec
	tracedOpts.atRest = func(sys *system, r *repResult) error {
		a, f, err := isolateHTTP(m, sys, layers)
		r.attempted += a
		r.failed += f
		return err
	}
	cpu0, t0 := cpuTime(), time.Now()
	tr, err := rep("traced", tracedOpts)
	if err != nil {
		return nil, err
	}
	cpu, elapsed := cpuTime()-cpu0, time.Since(t0)
	t0 = time.Now()
	if err := isolate(m, p, tmp, layers); err != nil {
		return nil, fmt.Errorf("isolation pass: %w", err)
	}
	phase("isolate", t0)
	layers["fleet.run_ns_per_event"] = median(simNs)
	layers["fleet.allocs_per_event"] = median(simAllocs)
	layers["process.cpu_s"] = cpu.Seconds()
	layers["process.cpu_util"] = cpu.Seconds() / elapsed.Seconds() / float64(runtime.NumCPU())
	layers["process.peak_rss_mb"] = peakRSSMB()
	layerMetrics(m, layers, reps[0], tr)
	for _, d := range perLayer {
		out.Metrics[d.Name] = value{layers[d.Name], d.Unit} // a layer this run could not reach reads 0
	}

	spans := rec.snapshot()
	tf := buildTraceFile(m.name, seed, spans)
	out.Info.TraceFile = filepath.Join(outDir, m.name+".trace.json")
	if err := writeTraceFile(out.Info.TraceFile, tf); err != nil {
		return nil, err
	}
	out.Info.WallSeconds = time.Since(wall).Seconds()
	return out, nil
}

// endToEndMetrics reduces the timed repetitions to the end-to-end
// metrics: each metric is computed per repetition, wall-clock ones are
// scaled to reference machine speed by the repetition's own speed reading
// (calib.go), and the centre (see center) over repetitions is reported.
// The unscaled values stay in the outcome under "raw.<metric>", beside the
// speed readings themselves.
func endToEndMetrics(out *outcome, reps []*repResult, setupSec, setupSpeed []float64) {
	per := map[string][]float64{}
	count := func(name string, v float64) { per[name] = append(per[name], v) }
	rate := func(name string, v, speed float64) {
		per["raw."+name] = append(per["raw."+name], v)
		per[name] = append(per[name], v/speed)
	}
	dur := func(name string, v, speed float64) {
		per["raw."+name] = append(per["raw."+name], v)
		per[name] = append(per[name], v*speed)
	}
	var acks, queries []float64
	for i, sec := range setupSec {
		dur("setup_s", sec, setupSpeed[i])
		count("machine_speed", setupSpeed[i])
	}
	for _, r := range reps {
		ev := float64(r.events)
		rate("ingest_events_per_s", ev/r.ingestSec, r.speed)
		rate("pipeline_events_per_s", ev/r.pipelineSec, r.speed)
		dur("ack_p50_ms", median(r.ackMs), r.speed)
		count("wire_bytes_per_event", float64(r.wireBytes)/ev)
		count("disk_bytes_per_event", float64(r.diskBytes)/ev)
		count("allocs_per_event", float64(r.mallocs)/ev)
		count("retained_bytes_per_event", float64(r.retained)/ev)
		rate("replay_events_per_s", ev/r.replaySec, r.speed)
		dur("query_p50_ms", r.q.lightP50(), r.speed)
		dur("live_figures_ms", median(r.q.ms["figures"]), r.speed)
		rate("batch_pass_events_per_s", ev/r.passSec, r.speed)
		count("machine_speed", r.speed)
		acks = append(acks, r.ackMs...)
		queries = append(queries, r.q.lightLatencies()...)
	}
	for _, d := range endToEnd {
		out.Metrics[d.Name] = value{center(per[d.Name]), d.Unit}
	}
	for name, v := range per {
		out.Timings[name] = summarize(v)
	}
	out.Info.MachineSpeed = out.Timings["machine_speed"].Median
	// The per-sample view of the two per-operation latencies, unscaled: all
	// repetitions pooled, so the highest supported percentile is as high as
	// it can be.
	out.Timings["ack_ms"] = summarize(acks)
	out.Timings["query_light_ms"] = summarize(queries)
}

// layerMetrics fills the per-layer metrics that come from the traced
// repetition tr and its untraced reference ref (the isolation passes have
// already written theirs).
func layerMetrics(m mix, l map[string]float64, ref, tr *repResult) {
	ev := float64(tr.events)
	nf := float64(tr.frames)
	l["uploader.record_ns_per_event"] = float64(tr.gen.recordNs) / ev
	l["uploader.flush_ns_per_batch"] = float64(tr.gen.flushNs) / nf
	l["uploader.ack_p99_ms"] = windowedP99(tr.ackAt, tr.ackMs, tr.ingestSec, 10)
	l["uploader.dials"] = float64(tr.gen.identities + tr.gen.retries)
	l["uploader.flush_retries"] = float64(tr.gen.retries)
	l["uploader.reroutes"] = float64(tr.gen.reroutes)

	l["collector.send_to_admit_p50_us"] = median(tr.gen.sendToAdmitUs)
	l["collector.admit_to_ack_p50_us"] = median(tr.gen.admitToAckUs)
	l["collector.batches"] = float64(tr.ctr.batches)
	l["collector.rx_bytes"] = float64(tr.ctr.rxBytes)
	l["collector.redirects"] = float64(tr.ctr.redirects)
	// What the generator goroutines spend per event end to end, minus what
	// the isolated layers account for: sockets, the gate, the ack round
	// trip and scheduling.
	nUp := float64(uploaders())
	if m.querier && nUp > 1 {
		nUp--
	}
	isolated := l["wirev3.encode_ns_per_event"] + l["wirev3.decode_ns_per_event"] + l["segstore.append_ns_per_event"] +
		l["dataset.append_ns_per_event"] + l["streaming.ingest_call_ns_per_chunk"]*float64(ref.frames)/float64(ref.events)
	l["collector.residual_ns_per_event"] = nUp*ref.ingestSec*1e9/float64(ref.events) - isolated

	l["streaming.drain_wait_ms"] = tr.drainWaitMs
	l["streaming.sync_ms"] = tr.syncMs
	l["streaming.max_queue_depth"] = float64(tr.maxQueueDepth)
	l["streaming.shed_chunks"] = float64(tr.status.Shed)
	l["streaming.resyncs"] = float64(tr.status.Resyncs + tr.replayStatus.Resyncs)
	l["streaming.late_drops"] = float64(tr.status.LateDrops)

	l["pass.new_ns_per_event"] = tr.passParts[0] * 1e9 / ev
	l["pass.figures_json_ms"] = tr.passParts[1] * 1e3
	l["pass.claims_json_ms"] = tr.passParts[2] * 1e3
	l["pass.allocs_per_event"] = float64(tr.passMallocs) / ev

	light := tr.q.lightLatencies()
	sort.Float64s(light)
	l["query.light_p99_ms"] = percentile(light, 99)
	if tr.load != nil {
		l["query.load_requests_per_s"] = float64(tr.load.attempted) / tr.ingestSec
	}

	l["process.gc_cycles"] = float64(tr.gcCycles)
	l["process.gc_pause_total_ms"] = tr.gcPauseMs
	l["bench.trace_overhead_ratio"] = (ev / tr.ingestSec) / (float64(ref.events) / ref.ingestSec)
	l["bench.generator_idle_share"] = 1 - float64(tr.gen.busy)/float64(tr.gen.total)
	l["bench.machine_speed"] = tr.speed
}
