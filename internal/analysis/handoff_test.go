package analysis

import (
	"bytes"
	"encoding/json"
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

// TestReplaySmallFramesNeverResyncs restarts on a store of phone-sized
// frames, wired exactly as cmd/collector wires it: replay decodes faster
// than the applier applies, so the applier trails by thousands of chunks.
// They must queue, not shed — a shed here costs a rebuild of every
// accumulator from the dataset before the first figure can be served.
func TestReplaySmallFramesNeverResyncs(t *testing.T) {
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
	if eng.Sync(in) {
		t.Error("Sync rebuilt the accumulators: replay shed chunks")
	}
	st := eng.Status()
	if st.Shed != 0 || st.Resyncs != 0 || st.Stale || st.QueueEvents != 0 {
		t.Errorf("status after replay: %+v, want nothing shed, no resync, not stale, no lag", st)
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
	// Status would queue behind the waiting applier; read its sources.
	lag := eng.lag.Load()
	eng.qmu.Lock()
	shed := eng.shedTotal
	eng.qmu.Unlock()
	eng.smu.RUnlock()
	if lag != chunks*16 {
		t.Errorf("queue_events = %d with the applier locked out, want %d", lag, chunks*16)
	}
	if shed != 0 {
		t.Errorf("%d chunks shed while the applier was locked out", shed)
	}

	if err := eng.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := eng.Status()
	if st.Shed != 0 || st.Stale || st.Events != chunks*16 || st.Chunks != chunks || st.QueueEvents != 0 || st.QueueDepth != 0 {
		t.Errorf("status at rest: %+v, want %d events in %d chunks, nothing shed or waiting", st, chunks*16, chunks)
	}
	if eng.Sync(van) {
		t.Error("Sync rebuilt: chunks were shed")
	}

	// The two new fields ride along under their documented names.
	js, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"queue_events":0`, `"stale":false`, `"queue_depth":0`, `"window_late_drops":`} {
		if !bytes.Contains(js, []byte(name)) {
			t.Errorf("status JSON %s lacks %s", js, name)
		}
	}
}

// TestShedMarksTheEngineStale: a shed is visible in Status until the Sync
// that repairs it.
func TestShedMarksTheEngineStale(t *testing.T) {
	van, _ := setup(t)
	eng := NewStreaming(van, StreamingOptions{QueueChunks: 2})
	defer eng.Close()
	// Locked out, the applier takes the queue at most once (two chunks at
	// most) and two more fit behind it: the fifth is shed at the latest.
	eng.smu.RLock()
	for _, f := range smallFrames(t, 5) {
		eng.Ingest(f)
	}
	eng.smu.RUnlock()
	if err := eng.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := eng.Status(); st.Shed == 0 || !st.Stale || st.QueueEvents != 0 {
		t.Fatalf("status after a shed: %+v, want shed > 0, stale, no lag", st)
	}
	if !eng.Sync(van) {
		t.Fatal("Sync did not rebuild despite a shed chunk")
	}
	if st := eng.Status(); st.Shed == 0 || st.Stale {
		t.Errorf("status after Sync: %+v, want the shed still counted and stale cleared", st)
	}
}

// TestApplierRunLock: a backlog of phone-sized chunks is applied in runs
// of about streamingHint events per hold of the state lock, every chunk
// still counted; a chunk longer than a run is applied whole.
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
