package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/trace/ring"
)

// mallocsDuring returns fn's wall time and the heap allocations made while
// it ran (process-wide; isolation passes run alone).
func mallocsDuring(fn func()) (time.Duration, uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return d, b.Mallocs - a.Mallocs
}

func p50p99(us []float64) (p50, p99 float64) {
	s := append([]float64(nil), us...)
	sort.Float64s(s)
	return percentile(s, 50), percentile(s, 99)
}

// isolate feeds one pool pass of the workload's own frames straight into
// each layer's public functions from a single goroutine — no sockets, no
// other layer running — so a layer's cost can be told apart from the
// contention and waiting the end-to-end run adds on top of it.
func isolate(m mix, p *pool, tmp string, out map[string]float64) error {
	events := float64(len(p.events))
	frames := make([]trace.Batch, len(p.batches))
	for i, b := range p.batches {
		frames[i] = trace.Batch{DeviceID: uint64(1 + i%uploaders()), Seq: uint64(1 + i/uploaders()), Events: b}
	}
	nf := float64(len(frames))

	// trace.wirev3: AppendBatchV3 into a reused buffer, then ReadBatchAny
	// over the concatenated frames.
	// The first pass builds the byte stream the decoder reads (and warms
	// the encoder pool); the second, into a reused buffer, is the one timed.
	var wire, buf []byte
	var err error
	for i := range frames {
		if buf, err = trace.AppendBatchV3(buf[:0], &frames[i]); err != nil {
			return fmt.Errorf("wirev3 encode: %w", err)
		}
		wire = append(wire, buf...)
	}
	d, mallocs := mallocsDuring(func() {
		for i := range frames {
			buf, _ = trace.AppendBatchV3(buf[:0], &frames[i])
		}
	})
	out["wirev3.encode_ns_per_event"] = float64(d) / events
	out["wirev3.encode_allocs_per_batch"] = float64(mallocs) / nf
	out["wirev3.frame_bytes_per_event"] = float64(len(wire)) / events
	var decErr error
	decoded := 0
	d, mallocs = mallocsDuring(func() {
		br := bufio.NewReaderSize(bytes.NewReader(wire), 1<<16)
		for range frames {
			b, _, _, err := trace.ReadBatchAny(br)
			if err != nil {
				decErr = err
				return
			}
			decoded += len(b.Events)
		}
	})
	if decErr != nil || decoded != len(p.events) {
		return fmt.Errorf("wirev3 decode: %d of %d events, err %v", decoded, len(p.events), decErr)
	}
	out["wirev3.decode_ns_per_event"] = float64(d) / events
	out["wirev3.decode_allocs_per_batch"] = float64(mallocs) / nf

	// trace.segstore: a standalone store with the deployed defaults.
	dir, err := os.MkdirTemp(tmp, "segstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := trace.OpenSegStore(dir, trace.SegStoreOptions{}, nil)
	if err != nil {
		return err
	}
	appendUs := make([]float64, 0, len(frames))
	t0 := time.Now()
	for i := range frames {
		a := time.Now()
		if err := st.Append(&frames[i]); err != nil {
			st.Close()
			return fmt.Errorf("segstore append: %w", err)
		}
		appendUs = append(appendUs, float64(time.Since(a))/1e3)
	}
	out["segstore.append_ns_per_event"] = float64(time.Since(t0)) / events
	out["segstore.append_p50_us"], out["segstore.append_p99_us"] = p50p99(appendUs)
	t0 = time.Now()
	if err := st.Checkpoint(); err != nil {
		st.Close()
		return err
	}
	out["segstore.checkpoint_ms"] = float64(time.Since(t0)) / 1e6
	if err := st.Close(); err != nil {
		return err
	}
	var sealed, written int64
	for _, seg := range st.Segments() {
		sealed++
		written += seg.Bytes
	}
	out["segstore.segments_sealed"] = float64(sealed)
	out["segstore.bytes_written"] = float64(written)
	t0 = time.Now()
	st, err = trace.OpenSegStore(dir, trace.SegStoreOptions{ReadOnly: true}, nil)
	if err != nil {
		return err
	}
	out["segstore.open_ms"] = float64(time.Since(t0)) / 1e6
	st.Close()
	replayed := 0
	t0 = time.Now()
	st, err = trace.OpenSegStore(dir, trace.SegStoreOptions{ReadOnly: true}, func(b *trace.Batch) { replayed += len(b.Events) })
	if err != nil {
		return err
	}
	out["segstore.replay_ns_per_event"] = float64(time.Since(t0)) / events
	read := 0
	t0 = time.Now()
	for _, seg := range st.Segments() {
		if err := st.ReadSegment(seg.ID, func(b *trace.Batch) error { read += len(b.Events); return nil }); err != nil {
			st.Close()
			return err
		}
	}
	out["segstore.read_segment_ns_per_event"] = float64(time.Since(t0)) / events
	st.Close()
	if replayed != len(p.events) || read != len(p.events) {
		return fmt.Errorf("segstore isolation: replayed %d, read %d of %d events", replayed, read, len(p.events))
	}

	// trace.dataset: the copy every admitted frame pays, and the digest
	// scan /api/digest runs.
	ds := trace.NewDataset()
	t0 = time.Now()
	for i := range frames {
		ds.AppendShard(int(frames[i].DeviceID%uint64(ds.NumShards())), frames[i].Events...)
	}
	out["dataset.append_ns_per_event"] = float64(time.Since(t0)) / events
	t0 = time.Now()
	ds.MultisetDigest()
	out["dataset.digest_ns_per_event"] = float64(time.Since(t0)) / events

	// analysis.streaming: hand-off cost per chunk, then the applier's cost
	// per event. The queue bound is lifted for this pass only: it measures
	// apply speed, and shedding (the policy) is counted end to end.
	in := p.ctx
	in.Dataset = ds
	eng := analysis.NewStreaming(in, analysis.StreamingOptions{QueueChunks: len(frames) + 1})
	t0 = time.Now()
	for i := range frames {
		eng.Ingest(frames[i].Events)
	}
	handoff := time.Since(t0)
	err = eng.WaitIdle(2 * time.Minute)
	applied := time.Since(t0)
	eng.Close()
	if err != nil {
		return err
	}
	out["streaming.ingest_call_ns_per_chunk"] = float64(handoff) / nf
	out["streaming.apply_ns_per_event"] = float64(applied) / events

	isolateRing(out)
	return nil
}

// isolateRing times the consistent-hash ring on 1M device ids over the
// deployed 3-member, 512-vnode geometry.
func isolateRing(out map[string]float64) {
	const ids = 1 << 20
	members := []string{"col-0", "col-1", "col-2"}
	r := ring.New(ringSeed, 0)
	r.Add(members...)
	owned := map[string]int{}
	owner := make([]string, ids)
	t0 := time.Now()
	for d := uint64(0); d < ids; d++ {
		owner[d], _ = r.Lookup(d)
	}
	out["ring.lookup_ns"] = float64(time.Since(t0)) / ids
	for _, o := range owner {
		owned[o]++
	}
	most := 0
	for _, n := range owned {
		if n > most {
			most = n
		}
	}
	out["ring.owner_skew"] = float64(most) / (float64(ids) / float64(len(members)))

	rt := ring.NewRouter(ringSeed, 0)
	for i, name := range members {
		rt.Add(name, fmt.Sprintf("127.0.0.1:%d", 9000+i))
	}
	t0 = time.Now()
	for d := uint64(0); d < ids; d++ {
		rt.Target(d)
	}
	out["ring.target_ns"] = float64(time.Since(t0)) / ids

	t0 = time.Now()
	r.Remove(members[0])
	out["ring.remove_ms"] = float64(time.Since(t0)) / 1e6
	moved := 0
	for d := uint64(0); d < ids; d++ {
		if now, _ := r.Lookup(d); now != owner[d] {
			moved++
		}
	}
	out["ring.moved_share"] = float64(moved) / ids
}

// isolateHTTP times each read endpoint alone against a settled system:
// the deployed server's own routes, plus the other segment API (MergeAPI
// over a 1-collector system's store, StoreAPI over a fleet member's) on a
// side server so both are measured on every mix.
func isolateHTTP(m mix, sys *system, out map[string]float64) (attempted, failed int, err error) {
	const n = 30
	q := newQuerier(sys.base, nil)
	defer q.close()
	q.cycle() // learn the newest sealed segment
	for i := 0; i < n; i++ {
		q.cycle()
	}
	for i := 0; i < 3; i++ {
		q.get("figures", "/api/live/figures")
	}
	main, other := "storeapi", "mergeapi"
	if m.collectors > 1 {
		main, other = other, main
	}
	out["liveapi.status_p50_ms"] = median(q.ms["status"])
	out["liveapi.window_p50_ms"] = median(q.ms["window"])
	out["liveapi.figures_p50_ms"] = median(q.ms["figures"])
	out[main+".index_p50_ms"] = median(q.ms["segments"])
	out[main+".events_p50_ms"] = median(q.ms["segment_events"])

	side, err := startSideServer(m, sys)
	if err != nil {
		return q.attempted, q.failed, err
	}
	defer side.close()
	sq := newQuerier(side.base, nil)
	defer sq.close()
	for i := 0; i <= n; i++ {
		sq.noteSealed(sq.get("segments", "/api/segments"))
		if sq.segQuery != "" {
			sq.get("segment_events", "/api/segments/events?"+sq.segQuery+"&limit=256")
		}
	}
	out[other+".index_p50_ms"] = median(sq.ms["segments"])
	out[other+".events_p50_ms"] = median(sq.ms["segment_events"])

	// Bulk download of the newest sealed segment, through whichever of the
	// two servers speaks StoreAPI.
	dq := sq
	if m.collectors == 1 {
		dq = q
	}
	if dq.segQuery != "" {
		var bytesRead int
		t0 := time.Now()
		for i := 0; i < 3; i++ {
			bytesRead += len(dq.get("segment_data", "/api/segments/data?"+dq.segQuery))
		}
		out["storeapi.data_mb_per_s"] = float64(bytesRead) / 1e6 / time.Since(t0).Seconds()
	}
	return q.attempted + sq.attempted, q.failed + sq.failed, nil
}

// digestMs times GET /api/digest (a full MultisetDigest scan) on sys.
func digestMs(sys *system) (ms float64, ok bool) {
	q := newQuerier(sys.base, nil)
	defer q.close()
	q.get("digest", "/api/digest")
	return median(q.ms["digest"]), q.failed == 0
}
