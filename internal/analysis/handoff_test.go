package analysis

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/trace"
)

// smallFrames cuts the standard fleet's events into n 16-event chunks,
// going round the pool as often as it takes.
func smallFrames(t *testing.T, n int) [][]failure.Event {
	t.Helper()
	van, _ := setup(t)
	pool := van.Dataset.Events()
	if len(pool) < 16 {
		t.Fatal("need at least 16 events")
	}
	frames := make([][]failure.Event, n)
	for i := range frames {
		lo := i * 16 % (len(pool) - 15)
		frames[i] = pool[lo : lo+16 : lo+16]
	}
	return frames
}

// TestReplaySmallFramesEqualPass restarts on a store of phone-sized
// frames, wired exactly as cmd/collector wires it: replay decodes faster
// than the applier applies, so the applier trails by thousands of chunks.
// Once it has caught up, every replayed chunk is applied and the live
// figures are the batch pass's bytes.
//
// ci/verify.sh's race stage runs it five times: the applier trails the
// replay by a different distance on every run.
func TestReplaySmallFramesEqualPass(t *testing.T) {
	const frames = 20_000
	dir := t.TempDir()
	store, err := trace.OpenSegStore(dir, trace.SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, events := range smallFrames(t, frames) {
		// One uploader identity per 64 frames, as a phone's day of uploads.
		b := &trace.Batch{DeviceID: uint64(1 + i/64), Seq: uint64(1 + i%64), Events: events}
		if err := store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	van, _ := setup(t)
	in := van
	in.Dataset = trace.NewDataset()
	eng := NewStreaming(in, StreamingOptions{})
	defer eng.Close()
	replayDs := trace.ReplayInto(in.Dataset)
	store, err = trace.OpenSegStore(dir, trace.SegStoreOptions{}, func(b *trace.Batch) {
		replayDs(b)
		eng.Ingest(b.Events)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := eng.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	st := eng.Status()
	if st.QueueEvents != 0 {
		t.Errorf("status after replay: %+v, want no lag", st)
	}
	if st.Chunks != frames || st.Events != frames*16 || in.Dataset.Len() != frames*16 {
		t.Errorf("replayed %d chunks / %d events into a dataset of %d, want %d / %d",
			st.Chunks, st.Events, in.Dataset.Len(), frames, frames*16)
	}
	got, err := eng.FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewPass(in).FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("live figures after replay != batch figures\nnear: %.200s", firstDiff(got, want))
	}
}

// TestQueueOutlastsARender holds the state lock the way a slow render
// does while a render's worth of phone-sized frames arrives (20 ms at
// 37 k frames/s is ~740; this sends 4 096). The applier cannot move, so
// every chunk has to wait in the queue, and the lag has to say so.
//
// ci/verify.sh's race stage runs it five times: the lag must read right
// however the arrivals interleave with the held lock.
func TestQueueOutlastsARender(t *testing.T) {
	const chunks = 4096
	frames := smallFrames(t, chunks)
	van, _ := setup(t)
	eng := NewStreaming(van, StreamingOptions{})
	defer eng.Close()

	// Shared, not exclusive: the applier still cannot get in, and the
	// test can look at the engine without deadlocking on itself.
	eng.smu.RLock()
	for _, f := range frames {
		eng.Ingest(f)
	}
	// Status would queue behind the waiting applier; read its source.
	lag := eng.lag.Load()
	eng.smu.RUnlock()
	if lag != chunks*16 {
		t.Errorf("queue_events = %d with the applier locked out, want %d", lag, chunks*16)
	}

	if err := eng.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := eng.Status()
	if st.Events != chunks*16 || st.Chunks != chunks || st.QueueEvents != 0 || st.QueueDepth != 0 {
		t.Errorf("status at rest: %+v, want %d events in %d chunks, nothing waiting", st, chunks*16, chunks)
	}

	// The lag rides along under its documented names; the deprecated
	// counters do not reach the wire.
	js, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"queue_events":0`, `"queue_depth":0`, `"window_late_drops":`} {
		if !bytes.Contains(js, []byte(name)) {
			t.Errorf("status JSON %s lacks %s", js, name)
		}
	}
	for _, name := range []string{`"shed"`, `"resyncs"`, `"stale"`} {
		if bytes.Contains(js, []byte(name)) {
			t.Errorf("status JSON %s carries %s", js, name)
		}
	}
}

// TestIngestNeverSheds locks the applier out while 40 000 phone-sized
// chunks are published and handed to Ingest, more than any replay or
// render has queued: every one must wait in the queue, and once the
// applier is let back in the live figures and claims are the batch pass's
// bytes over the same dataset, with no Sync.
//
// ci/verify.sh's race stage runs it five times: the queue must hold every
// chunk however the producers and the applier interleave.
func TestIngestNeverSheds(t *testing.T) {
	const chunks = 40_000
	frames := smallFrames(t, chunks)
	van, _ := setup(t)
	in := van
	in.Dataset = trace.NewDataset()
	eng := NewStreaming(in, StreamingOptions{})
	defer eng.Close()
	hand := func(f []failure.Event) {
		in.Dataset.Publish(f)
		eng.Ingest(f)
	}

	eng.smu.RLock()
	// The applier takes the first chunk and then waits for the state lock,
	// so the other 39 999 all wait in the queue.
	hand(frames[0])
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		eng.qmu.Lock()
		taken := len(eng.queue) == 0
		eng.qmu.Unlock()
		if taken {
			break
		}
		if time.Now().After(deadline) {
			eng.smu.RUnlock()
			t.Fatal("applier never took the first chunk")
		}
	}
	for _, f := range frames[1:] {
		hand(f)
	}
	eng.smu.RUnlock()
	if err := eng.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	if st := eng.Status(); st.Chunks != chunks || st.Events != chunks*16 || st.QueueEvents != 0 {
		t.Fatalf("status: %+v, want %d chunks, %d events, no lag", st, chunks, chunks*16)
	}
	wantFig, wantClaims := passBytes(t, in)
	checkLiveBytes(t, eng, "after the locked-out backlog", wantFig, wantClaims)
}

// TestApplierRunLock: a backlog of phone-sized chunks is applied in runs
// of about streamingHint events per hold of the state lock, every chunk
// still counted; a chunk longer than a run is applied whole.
//
// ci/verify.sh's race stage runs it five times: the applier takes the state
// lock per run of chunks, and one run samples few cuts.
func TestApplierRunLock(t *testing.T) {
	const chunks = 1000
	frames := smallFrames(t, chunks)
	van, _ := setup(t)
	eng := NewStreaming(van, StreamingOptions{})
	defer eng.Close()

	eng.smu.RLock()
	for _, f := range frames {
		eng.Ingest(f)
	}
	eng.smu.RUnlock()
	if err := eng.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := eng.Status(); st.Chunks != chunks || st.Events != chunks*16 {
		t.Errorf("status: %+v, want %d chunks, %d events", st, chunks, chunks*16)
	}
	// The applier took what was queued when it woke (one hold, whatever
	// that was) and then the rest in full runs.
	eng.smu.RLock()
	runs := eng.runs
	eng.smu.RUnlock()
	if most := int64(chunks*16/streamingHint + 2); runs < 1 || runs > most {
		t.Errorf("applier took the state lock %d times for %d chunks, want 1..%d", runs, chunks, most)
	}

	long := van.Dataset.Events()
	if len(long) > 3*streamingHint+5 {
		long = long[:3*streamingHint+5]
	}
	if len(long) <= streamingHint {
		t.Fatalf("need more than %d events, have %d", streamingHint, len(long))
	}
	eng.Ingest(long)
	if err := eng.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	eng.smu.RLock()
	longRuns := eng.runs - runs
	eng.smu.RUnlock()
	if st := eng.Status(); longRuns != 1 || st.Chunks != chunks+1 || st.Events != int64(chunks*16+len(long)) {
		t.Errorf("a %d-event chunk took %d holds, status %+v; want one hold, %d chunks, %d events",
			len(long), longRuns, st, chunks+1, chunks*16+len(long))
	}
}

// waitParked spins until the applier has applied every queued chunk and
// parked again, without allocating.
func waitParked(s *Streaming) {
	for {
		s.qmu.Lock()
		parked := !s.busy && len(s.queue) == 0
		s.qmu.Unlock()
		if parked {
			return
		}
		runtime.Gosched()
	}
}

// TestCaughtUpIngestAllocatesNothing: handing a phone-sized chunk to a
// warm engine whose applier keeps up allocates nothing, on either side of
// the hand-off: the queue and the applier's drained slice trade places.
func TestCaughtUpIngestAllocatesNothing(t *testing.T) {
	frames := smallFrames(t, 64)
	van, _ := setup(t)
	eng := NewStreaming(van, StreamingOptions{})
	defer eng.Close()
	for _, f := range frames {
		eng.Ingest(f)
		waitParked(eng)
	}
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		eng.Ingest(frames[i%len(frames)])
		i++
		waitParked(eng)
	})
	if allocs != 0 {
		t.Errorf("Ingest of a 16-event chunk into a caught-up engine allocates %v, want 0", allocs)
	}
}

// TestDrainedQueueIsClearedAndBounded: the slice the applier drained comes
// back cleared over its whole capacity, so a recycled queue pins no chunk,
// and a backlog of more than streamingHint chunks leaves no array of that
// size behind.
func TestDrainedQueueIsClearedAndBounded(t *testing.T) {
	frames := smallFrames(t, 2*streamingHint)
	van, _ := setup(t)
	eng := NewStreaming(van, StreamingOptions{})
	defer eng.Close()
	pinned := func(what string) {
		t.Helper()
		eng.qmu.Lock()
		defer eng.qmu.Unlock()
		for name, q := range map[string][][]failure.Event{"queue": eng.queue, "spare": eng.spare} {
			if cap(q) > streamingHint {
				t.Errorf("%s: the %s keeps a %d-chunk array, more than %d", what, name, cap(q), streamingHint)
			}
			for k, c := range q[:cap(q)] {
				if c != nil {
					t.Errorf("%s: slot %d of the %s still holds a %d-event chunk", what, k, name, len(c))
					return
				}
			}
		}
	}

	// A small backlog: its array is recycled.
	eng.smu.RLock()
	for _, f := range frames[:40] {
		eng.Ingest(f)
	}
	eng.smu.RUnlock()
	waitParked(eng)
	eng.Ingest(frames[40])
	waitParked(eng)
	pinned("after a 40-chunk backlog")

	// A backlog past the bound: its array is let go.
	eng.smu.RLock()
	for _, f := range frames {
		eng.Ingest(f)
	}
	eng.smu.RUnlock()
	waitParked(eng)
	pinned("after a backlog of more than streamingHint chunks")
	if st := eng.Status(); st.Chunks != int64(41+len(frames)) {
		t.Errorf("applied %d chunks, want %d", st.Chunks, 41+len(frames))
	}
}

// withPause builds the test's engines with a pause of d instead of
// applyPause.
func withPause(t *testing.T, d time.Duration) {
	t.Helper()
	applyPauseHook = func() time.Duration { return d }
	t.Cleanup(func() { applyPauseHook = nil })
}

// waitDrains spins until the applier has taken n batches off the queue.
func waitDrains(t *testing.T, s *Streaming, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		s.qmu.Lock()
		drains := s.drains
		s.qmu.Unlock()
		if drains >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("applier took %d batches in 10s, want %d", drains, n)
		}
	}
}

// TestPausingApplierBatchesChunks hands 100 phone-sized chunks, one at a
// time, to an applier that pauses after its first one-chunk drain: they
// wait in the queue without waking it, so a handful of drains apply them
// all, and analysis_live_drains_total counts each drain.
//
// ci/verify.sh's race stage runs it five times: Ingest signals only a parked
// applier, and one run samples few wake-ups.
func TestPausingApplierBatchesChunks(t *testing.T) {
	const chunks = 100
	withPause(t, 10*time.Second)
	frames := smallFrames(t, chunks)
	van, _ := setup(t)
	metricBefore := mLiveDrains.Value()
	eng := NewStreaming(van, StreamingOptions{})
	defer eng.Close()

	eng.Ingest(frames[0])
	waitDrains(t, eng, 1)
	for _, f := range frames[1:] {
		eng.Ingest(f)
	}
	if err := eng.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	eng.qmu.Lock()
	drains := eng.drains
	eng.qmu.Unlock()
	if drains > 5 {
		t.Errorf("the applier drained %d times for %d chunks, want at most 5", drains, chunks)
	}
	if got := mLiveDrains.Value() - metricBefore; got != drains {
		t.Errorf("analysis_live_drains_total rose by %d, the engine drained %d times", got, drains)
	}
	if st := eng.Status(); st.Chunks != chunks || st.Events != chunks*16 || st.QueueEvents != 0 || st.QueueDepth != 0 {
		t.Errorf("status after WaitIdle: %+v, want %d chunks, %d events, nothing waiting", st, chunks, chunks*16)
	}
}

// TestPauseIsCutShort: with a 10 s pause, neither WaitIdle nor Close
// waits it out, and each leaves every queued chunk applied.
//
// ci/verify.sh's race stage runs it five times: WaitIdle and Close race the
// applier's pause.
func TestPauseIsCutShort(t *testing.T) {
	withPause(t, 10*time.Second)
	frames := smallFrames(t, 4)
	van, _ := setup(t)
	eng := NewStreaming(van, StreamingOptions{})
	defer eng.Close()

	// The applier drains one chunk and pauses; a second waits behind it.
	eng.Ingest(frames[0])
	waitDrains(t, eng, 1)
	eng.Ingest(frames[1])
	start := time.Now()
	if err := eng.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("WaitIdle took %v behind a 10s pause, want under 1s", took)
	}
	if st := eng.Status(); st.Chunks != 2 || st.QueueEvents != 0 {
		t.Errorf("status after WaitIdle: %+v, want 2 chunks, no lag", st)
	}

	// Pausing again, with a chunk queued: Close applies it and returns.
	eng.Ingest(frames[2])
	waitDrains(t, eng, 3)
	eng.Ingest(frames[3])
	start = time.Now()
	eng.Close()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v behind a 10s pause, want under 1s", took)
	}
	if st := eng.Status(); st.Chunks != 4 || st.Events != 4*16 || st.QueueEvents != 0 {
		t.Errorf("status after Close: %+v, want 4 chunks, %d events, no lag", st, 4*16)
	}
}

// TestWaitIdleTimesOut: an applier locked out of the state lock keeps
// WaitIdle from going idle, and WaitIdle says so once its timeout is up;
// let back in, the applier drains and the next WaitIdle returns.
//
// ci/verify.sh's race stage runs it five times: WaitIdle races the applier
// it waits for.
func TestWaitIdleTimesOut(t *testing.T) {
	frames := smallFrames(t, 1)
	van, _ := setup(t)
	eng := NewStreaming(van, StreamingOptions{})
	defer eng.Close()

	eng.smu.RLock()
	eng.Ingest(frames[0])
	err := eng.WaitIdle(50 * time.Millisecond)
	eng.smu.RUnlock()
	if err == nil {
		t.Fatal("WaitIdle returned nil with the applier locked out")
	}
	if err := eng.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := eng.Status(); st.Chunks != 1 || st.QueueEvents != 0 {
		t.Errorf("status: %+v, want 1 chunk, no lag", st)
	}
}

// TestQueueDepthGaugeSettles: producers hammer Ingest while the applier
// drains; once WaitIdle returns, analysis_live_queue_depth reads 0 in
// every round. A depth Ingest set after letting go of the queue lock
// could land on the applier's reset and outlast the queue it described.
//
// ci/verify.sh's race stage runs it five times: the gauge's last writer
// depends on the interleaving.
func TestQueueDepthGaugeSettles(t *testing.T) {
	const (
		rounds    = 200
		producers = 4
		perRound  = 32
	)
	frames := smallFrames(t, producers*perRound)
	van, _ := setup(t)
	eng := NewStreaming(van, StreamingOptions{})
	defer eng.Close()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(mine [][]failure.Event) {
				defer wg.Done()
				for _, f := range mine {
					eng.Ingest(f)
				}
			}(frames[p*perRound : (p+1)*perRound])
		}
		wg.Wait()
		if err := eng.WaitIdle(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if depth := mLiveQueueDepth.Value(); depth != 0 {
			t.Fatalf("round %d: analysis_live_queue_depth reads %v with the queue empty", round, depth)
		}
	}
	if st := eng.Status(); st.Chunks != rounds*producers*perRound || st.QueueEvents != 0 {
		t.Errorf("status: %+v, want %d chunks, no lag", st, rounds*producers*perRound)
	}
}
