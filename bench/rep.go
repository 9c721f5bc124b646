package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/trace"
)

// repOpts sizes one repetition.
type repOpts struct {
	events int       // upload at least this many events: the shortest run of frames, cycling through the pool, that holds them
	rec    *recorder // nil: untraced
	// canonical adds the full-fidelity digest checks with trace.EventDigest
	// (I4 stored multiset, I6/I7 segment replay). They cost ~2.6 µs per
	// event per side, so they run on the one-pass warm-up repetition — the
	// same code path at a size where they are affordable — while every
	// timed repetition still checks counts, gate counters, live==batch
	// bytes and the restart path.
	canonical bool
	// atRest, when set, runs against the settled system (stores still
	// open) after the repetition's own measurements: the traced run's
	// per-endpoint HTTP isolation.
	atRest func(sys *system, r *repResult) error
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// repResult is everything one repetition measured.
type repResult struct {
	events      int64
	frames      int
	ingestSec   float64 // first Record → last ack
	pipelineSec float64 // first Record → drained, engine idle and synced
	ackMs       []float64
	ackAt       []float64 // completion offset of each ack, seconds since first Record
	wireBytes   int64
	diskBytes   int64
	mallocs     uint64
	retained    int64
	replaySec   float64
	q           *querier // the paced dashboard poller
	load        *querier // the full-speed read load; nil on mixes without one
	passSec     float64  // NewPass + FiguresJSON + ClaimsJSON
	passParts   [3]float64
	passMallocs uint64
	checks      []check
	attempted   int
	failed      int
	// speed is the machine's speed during this repetition, relative to the
	// reference (calib.go): the mean of readings taken between its timed
	// sections, by which its wall-clock metrics are scaled.
	speed float64

	gen           genStats
	ctr           counters
	status        analysis.StreamingStatus
	replayStatus  analysis.StreamingStatus
	maxQueueDepth int
	drainWaitMs   float64
	syncMs        float64
	gcCycles      uint32
	gcPauseMs     float64
}

func (r *repResult) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		r.failed++
	}
	r.attempted++
	r.checks = append(r.checks, c)
}

// genStats is one uploader goroutine's account (summed over goroutines).
type genStats struct {
	ackMs, ackAt  []float64
	frames        int
	events        int64
	busy, total   time.Duration // inside Record/Flush vs. the goroutine's whole life
	recordNs      int64
	flushNs       int64
	identities    int
	retries       int
	reroutes      int64
	sentBytes     int64
	failedFlushes int
	lastAck       time.Time
	sendToAdmitUs []float64
	admitToAckUs  []float64
	err           error
}

func (g *genStats) add(o *genStats) {
	g.ackMs = append(g.ackMs, o.ackMs...)
	g.ackAt = append(g.ackAt, o.ackAt...)
	g.frames += o.frames
	g.events += o.events
	g.busy += o.busy
	g.total += o.total
	g.recordNs += o.recordNs
	g.flushNs += o.flushNs
	g.identities += o.identities
	g.retries += o.retries
	g.reroutes += o.reroutes
	g.sentBytes += o.sentBytes
	g.failedFlushes += o.failedFlushes
	if o.lastAck.After(g.lastAck) {
		g.lastAck = o.lastAck
	}
	g.sendToAdmitUs = append(g.sendToAdmitUs, o.sendToAdmitUs...)
	g.admitToAckUs = append(g.admitToAckUs, o.admitToAckUs...)
	if g.err == nil {
		g.err = o.err
	}
}

// flight is one frame between Flush call and return, so the OnAdmit
// wrapper — which sees only the decoded events — can find the span that
// caused it.
type flight struct {
	key                  flightKey
	span                 int
	device, seq          uint64
	admitStart, admitEnd int64 // ns since the recorder started; 0 until admitted
}

type flightKey struct {
	device     uint64
	start, dur time.Duration
	n          int
}

func keyOf(events []failure.Event) flightKey {
	e := &events[0]
	return flightKey{e.DeviceID, e.Start, e.Duration, len(events)}
}

// flightTable has one slot per uploader goroutine. The generator is closed
// loop, so a goroutine has at most one frame open, and pool.frame hands a
// pool frame to the same goroutine every time round, so the open frames
// are different pool frames and their keys differ.
type flightTable struct {
	mu   sync.Mutex
	open []*flight // indexed by uploader goroutine; nil: nothing in flight
}

func (t *flightTable) add(g int, f *flight) {
	t.mu.Lock()
	t.open[g] = f
	t.mu.Unlock()
}

// remove closes goroutine g's flight and returns its admit stamps.
func (t *flightTable) remove(g int) (admitStart, admitEnd int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.open[g]
	t.open[g] = nil
	return f.admitStart, f.admitEnd
}

// admitHook wraps OnAdmit with a span parented on the frame's flush span.
func (t *flightTable) admitHook(rec *recorder) func(next func([]failure.Event)) func([]failure.Event) {
	return func(next func([]failure.Event)) func([]failure.Event) {
		return func(events []failure.Event) {
			key := keyOf(events)
			var f *flight
			t.mu.Lock()
			for _, o := range t.open {
				if o != nil && o.key == key {
					f = o
					break
				}
			}
			t.mu.Unlock()
			var parent int
			var device, seq uint64
			if f != nil {
				parent, device, seq = f.span, f.device, f.seq
			}
			id := rec.begin("streaming.ingest", parent, device, seq)
			start := int64(time.Since(rec.t0))
			next(events)
			end := int64(time.Since(rec.t0))
			rec.end(id)
			if f != nil {
				t.mu.Lock()
				f.admitStart, f.admitEnd = start, end
				t.mu.Unlock()
			}
		}
	}
}

// runRep runs one repetition of mix m on a fresh system rooted at dir:
// closed-loop upload of o.events events beside the light-mix querier, drain
// and settle, the figures query at rest, the batch pass, store close, and a
// reboot from disk. It returns an error only when the repetition could not
// be carried out; failed output checks are reported in the result.
func runRep(m mix, p *pool, dir string, o repOpts) (*repResult, error) {
	r := &repResult{}
	nUp := uploaders()
	if m.querier && nUp > 1 {
		nUp-- // one generator slot goes to the querier: max(C-1, 1) uploaders
	}
	// The frames to send: p.frame(0), p.frame(1), … until they hold
	// o.events events. Goroutine g sends frames g, g+nUp, ….
	nFrames, sending := 0, 0
	for ; sending < o.events; nFrames++ {
		sending += len(p.frame(nFrames, nUp))
	}
	var want trace.Digest
	if o.canonical {
		// What the fleet "recorded", digested before anything is sent.
		want, _ = sumDigests(nFrames, func(f int, part *trace.Digest) error {
			b := p.frame(f, nUp)
			for k := range b {
				part.Add(trace.EventDigest(&b[k]))
			}
			return nil
		})
	}
	perGen := nFrames/nUp + 1
	gens := make([]genStats, nUp)
	for g := range gens {
		gens[g].ackMs = make([]float64, 0, perGen)
		gens[g].ackAt = make([]float64, 0, perGen)
	}

	var h hooks
	var flights *flightTable
	if o.rec != nil {
		flights = &flightTable{open: make([]*flight, nUp)}
		h.admit = flights.admitHook(o.rec)
	}

	var meter speedometer
	meter.read() // outside the window the allocation counts are taken over
	var ms0, ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)

	sys, err := startSystem(m, p.ctx, dir, h)
	if err != nil {
		return nil, fmt.Errorf("start system: %w", err)
	}
	defer func() {
		if sys != nil {
			sys.stop()
		}
	}()
	r.q = newQuerier(sys.base, o.rec)
	defer r.q.close()

	// --- timed section: closed-loop upload ---
	// An operator's dashboard polls the light mix every 10 ms beside the
	// uploaders on every mix (a negligible load): query_p50_ms is what it
	// sees, so it always means latency under that mix's load, measured the
	// same way. Where the mix says so, a second querier drives the light
	// mix closed loop at full speed as read load. It is not the one timed:
	// the median of its 40 µs requests sits on the knee between "ran at
	// once" and "waited for a core" and moves 2.5x as far as the machine's
	// speed does.
	done := make(chan struct{})
	var side sync.WaitGroup
	poll := func(q *querier, pause time.Duration) {
		defer side.Done()
		for {
			q.cycle()
			select {
			case <-done:
				return
			case <-time.After(pause):
			}
		}
	}
	side.Add(1)
	go poll(r.q, 10*time.Millisecond)
	if m.querier {
		r.load = newQuerier(sys.base, nil)
		defer r.load.close()
		side.Add(1)
		go poll(r.load, 0)
	}
	if o.rec != nil {
		side.Add(1)
		go func() {
			defer side.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					if d := sys.eng.Status().QueueDepth; d > r.maxQueueDepth {
						r.maxQueueDepth = d
					}
				}
			}
		}()
	}
	tStart := time.Now()
	var wg sync.WaitGroup
	for g := range gens {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			generate(m, sys, p, o, flights, g, nUp, nFrames, tStart, &gens[g])
		}(g)
	}
	wg.Wait()
	close(done)
	side.Wait()
	for g := range gens {
		r.gen.add(&gens[g])
	}
	if r.gen.err != nil {
		return nil, fmt.Errorf("upload: %w", r.gen.err)
	}
	r.events, r.frames = r.gen.events, r.gen.frames
	r.ackMs, r.ackAt, r.wireBytes = r.gen.ackMs, r.gen.ackAt, r.gen.sentBytes
	r.ingestSec = r.gen.lastAck.Sub(tStart).Seconds()

	tDrain := time.Now()
	if err := sys.drain(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if err := sys.eng.WaitIdle(2 * time.Minute); err != nil {
		return nil, err
	}
	tSync := time.Now()
	sys.eng.Sync(sys.in)
	tPipe := time.Now()
	r.drainWaitMs = float64(tSync.Sub(tDrain)) / 1e6
	r.syncMs = float64(tPipe.Sub(tSync)) / 1e6
	r.pipelineSec = tPipe.Sub(tStart).Seconds()

	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	r.retained = int64(ms2.HeapAlloc) - int64(ms0.HeapAlloc)
	meter.read()

	r.attempted += r.frames + r.gen.failedFlushes
	r.failed += r.gen.failedFlushes
	r.ctr = sys.counters()
	r.status = sys.eng.Status()

	// --- output checks on the settled system ---
	r.check("stored_len", int64(sys.ds.Len()) == r.events, "dataset holds %d events, sent %d", sys.ds.Len(), r.events)
	r.check("gate_counters", r.ctr.dedupHits == 0 && r.ctr.nacks == 0 && r.ctr.redirects == 0 && r.gen.retries == 0,
		"dedup=%d nacks=%d redirects=%d flush_retries=%d", r.ctr.dedupHits, r.ctr.nacks, r.ctr.redirects, r.gen.retries)
	r.check("collector_batches", r.ctr.batches == r.frames, "collector admitted %d frames, sent %d", r.ctr.batches, r.frames)
	var indexed int64
	for _, src := range sys.sources() {
		for _, seg := range src.Store.Segments() {
			indexed += int64(seg.Events)
		}
	}
	r.check("segment_index_events", indexed == r.events, "segment index counts %d events, sent %d", indexed, r.events)
	if o.canonical {
		got := datasetDigest(sys.ds)
		r.check("I4_stored_digest", got == want, "stored %s, recorded %s", got, want)
	}

	// --- the heavy query, at rest: three times, the repetition's value is
	// their median ---
	var live []byte
	for i := 0; i < 3; i++ {
		live = r.q.get("figures", "/api/live/figures")
	}
	meter.read()

	// --- batch pass over the stored dataset; live == batch (I5) ---
	var pm0, pm1 runtime.MemStats
	runtime.ReadMemStats(&pm0)
	t0 := time.Now()
	pass := analysis.NewPass(sys.in)
	t1 := time.Now()
	figures, ferr := pass.FiguresJSON(core.Catalogue())
	t2 := time.Now()
	_, cerr := pass.ClaimsJSON()
	t3 := time.Now()
	runtime.ReadMemStats(&pm1)
	if ferr != nil || cerr != nil {
		return nil, fmt.Errorf("batch pass: figures: %v, claims: %v", ferr, cerr)
	}
	r.passSec = t3.Sub(t0).Seconds()
	r.passParts = [3]float64{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()}
	r.passMallocs = pm1.Mallocs - pm0.Mallocs
	meter.read()
	r.check("I5_live_equals_batch", live != nil && bytes.Equal(live, figures), "live figures (%d B) differ from batch figures (%d B)", len(live), len(figures))

	if o.atRest != nil {
		if err := o.atRest(sys, r); err != nil {
			return nil, err
		}
	}

	// --- seal, measure disk, replay segments ---
	if err := sys.closeStores(); err != nil {
		return nil, fmt.Errorf("close stores: %w", err)
	}
	r.diskBytes, err = dirSize(dir)
	if err != nil {
		return nil, err
	}
	if o.canonical {
		got, err := segmentsDigest(sys.sources())
		if err != nil {
			return nil, err
		}
		r.check("I6_I7_segment_replay_digest", got == want, "segments replay to %s, recorded %s", got, want)
	}
	r.attempted += r.q.attempted
	r.failed += r.q.failed
	if r.load != nil {
		r.attempted += r.load.attempted
		r.failed += r.load.failed
	}
	if err := sys.stop(); err != nil {
		return nil, err
	}
	sys = nil

	// --- restart: boot a fresh system from the directory ---
	h = hooks{}
	meter.read()
	root := o.rec.begin("restart", 0, 0, 0)
	if o.rec != nil {
		h.replay = func(next func(*trace.Batch)) func(*trace.Batch) {
			return func(b *trace.Batch) {
				id := o.rec.begin("segstore.replay_batch", root, b.DeviceID, b.Seq)
				next(b)
				o.rec.end(id)
			}
		}
	}
	t0 = time.Now()
	sys, err = startSystem(m, p.ctx, dir, h)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	r.replaySec = time.Since(t0).Seconds()
	o.rec.end(root)
	meter.read()
	r.speed = meter.speed()
	r.replayStatus = sys.eng.Status()
	r.check("replay_len", int64(sys.ds.Len()) == r.events, "replayed %d events, sent %d", sys.ds.Len(), r.events)
	replayed, err := sys.eng.FiguresJSON(core.Catalogue())
	if err != nil {
		return nil, err
	}
	r.check("replay_figures_equal_batch", bytes.Equal(replayed, figures), "figures after restart (%d B) differ from batch figures (%d B)", len(replayed), len(figures))
	err = sys.stop()
	sys = nil
	return r, err
}

// generate is uploader goroutine g of nUp: it sends frames g, g+nUp, … of
// the first nFrames, each only after the previous ack (phones wait for
// acks).
func generate(m mix, sys *system, p *pool, o repOpts, flights *flightTable, g, nUp, nFrames int, tStart time.Time, st *genStats) {
	born := time.Now()
	defer func() { st.total = time.Since(born) }()
	var u *trace.Uploader
	var id, seq uint64
	retire := func() {
		if u == nil {
			return
		}
		st.retries += u.FlushRetries()
		st.reroutes += u.Reroutes()
		st.sentBytes += u.SentBytes()
		u.Close()
		u = nil
	}
	defer retire()
	for f := g; f < nFrames; f += nUp {
		if u == nil || (m.churn > 0 && int(seq) == m.churn) {
			retire()
			id = uint64(1 + g + st.identities*nUp)
			st.identities++
			seq = 0
			u = sys.newUploader(id)
		}
		b := p.frame(f, nUp)
		seq++
		t0 := time.Now()
		root := o.rec.begin("frame", 0, id, seq)
		s := o.rec.begin("uploader.record", root, id, seq)
		for k := range b {
			u.Record(b[k])
		}
		o.rec.end(s)
		t1 := time.Now()
		var fl *flight
		if flights != nil {
			fl = &flight{key: keyOf(b), device: id, seq: seq}
			fl.span = o.rec.begin("uploader.flush", root, id, seq)
			flights.add(g, fl)
		}
		err := u.Flush()
		for attempt := 0; err != nil && attempt < 20; attempt++ {
			// No mix should ever get here; count it and let the
			// uploader's own retry machinery re-deliver.
			st.failedFlushes++
			time.Sleep(u.RetryDelay() + time.Millisecond)
			err = u.Flush()
		}
		t2 := time.Now()
		if fl != nil {
			o.rec.end(fl.span)
			o.rec.end(root)
			admitStart, admitEnd := flights.remove(g)
			if admitStart != 0 {
				st.sendToAdmitUs = append(st.sendToAdmitUs, float64(admitStart-int64(t1.Sub(o.rec.t0)))/1e3)
				st.admitToAckUs = append(st.admitToAckUs, float64(int64(t2.Sub(o.rec.t0))-admitEnd)/1e3)
			}
		}
		if err != nil {
			st.err = fmt.Errorf("identity %d seq %d: %w", id, seq, err)
			return
		}
		st.recordNs += int64(t1.Sub(t0))
		st.flushNs += int64(t2.Sub(t1))
		st.busy += t2.Sub(t0)
		st.ackMs = append(st.ackMs, float64(t2.Sub(t1))/1e6)
		st.ackAt = append(st.ackAt, t2.Sub(tStart).Seconds())
		st.frames++
		st.events += int64(len(b))
		st.lastAck = t2
	}
}

// datasetDigest is Dataset.MultisetDigest computed one shard per core.
func datasetDigest(ds *trace.Dataset) trace.Digest {
	d, _ := sumDigests(ds.NumShards(), func(s int, part *trace.Digest) error {
		ds.EachShard(s, func(e *failure.Event) { part.Add(trace.EventDigest(e)) })
		return nil
	})
	return d
}

// segmentsDigest replays every sealed segment of every store through
// ReadSegment (one segment per core) and digests what comes back.
func segmentsDigest(sources []trace.StoreSource) (trace.Digest, error) {
	type job struct {
		st *trace.SegStore
		id uint64
	}
	var jobs []job
	for _, src := range sources {
		for _, seg := range src.Store.Segments() {
			jobs = append(jobs, job{src.Store, seg.ID})
		}
	}
	return sumDigests(len(jobs), func(i int, part *trace.Digest) error {
		err := jobs[i].st.ReadSegment(jobs[i].id, func(b *trace.Batch) error {
			for k := range b.Events {
				part.Add(trace.EventDigest(&b.Events[k]))
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("read segment %d: %w", jobs[i].id, err)
		}
		return nil
	})
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
