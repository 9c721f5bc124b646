package analysis

import (
	"bytes"
	"cmp"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// liveGet fetches one live endpoint's raw bytes.
func liveGet(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return b
}

// uploadRunLive runs a fleet scenario uploading through a live in-process
// collector whose admit path feeds a streaming engine, queries the live
// endpoints mid-run, then drains and settles. It returns the final live
// figure/claims bytes plus the engine and the collector's dataset.
func uploadRunLive(t *testing.T, scenario fleet.Scenario) (fig, claims []byte, eng *Streaming, ds *trace.Dataset, res *fleet.Result) {
	t.Helper()
	ds = trace.NewDataset()
	eng = NewStreaming(LiveInput(ds), StreamingOptions{})
	col, err := trace.NewCollectorWith("127.0.0.1:0", ds, trace.CollectorOptions{OnAdmit: eng.Ingest})
	if err != nil {
		t.Fatalf("collector: %v", err)
	}
	scenario.UploadAddr = col.Addr()

	srv := httptest.NewServer(func() http.Handler {
		mux := http.NewServeMux()
		NewLiveAPI(eng, catalogueCE).Routes(mux)
		return mux
	}())
	defer srv.Close()

	// Query the live endpoints while the fleet is still uploading — the
	// mid-run responses only need to be servable; equality is asserted
	// post-drain.
	done := make(chan *fleet.Result, 1)
	go func() {
		r, err := fleet.Run(scenario)
		if err != nil {
			t.Errorf("fleet run: %v", err)
		}
		done <- r
	}()
	for {
		select {
		case res = <-done:
		case <-time.After(2 * time.Millisecond):
			liveGet(t, srv, "/api/live/figures")
			liveGet(t, srv, "/api/live/status")
			continue
		}
		break
	}
	if res == nil {
		t.Fatal("fleet run failed")
	}
	if err := col.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := eng.WaitIdle(10 * time.Second); err != nil {
		t.Fatalf("wait idle: %v", err)
	}

	in := FromResult(res)
	in.Dataset = ds
	if eng.Sync(in) {
		t.Fatalf("engine resynced — live path was not exercised (shed=%d)", eng.Status().Shed)
	}
	st := eng.Status()
	if st.Shed != 0 || st.Resyncs != 0 {
		t.Fatalf("live path degraded: %+v", st)
	}
	if st.Events != int64(ds.Len()) {
		t.Fatalf("engine applied %d events, collector stored %d", st.Events, ds.Len())
	}

	fig = liveGet(t, srv, "/api/live/figures")
	claims = liveGet(t, srv, "/api/live/claims")
	t.Cleanup(eng.Close)
	return fig, claims, eng, ds, res
}

// batchJSON renders the batch pass over the collector's final dataset with
// the run's context — the oracle the live bytes must equal.
func batchJSON(t *testing.T, res *fleet.Result, ds *trace.Dataset) (fig, claims []byte) {
	t.Helper()
	in := FromResult(res)
	in.Dataset = ds
	pass := NewPass(in)
	fig, err := pass.FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatalf("batch figures: %v", err)
	}
	claims, err = pass.ClaimsJSON()
	if err != nil {
		t.Fatalf("batch claims: %v", err)
	}
	return fig, claims
}

// TestStreamingEqualsBatchEndToEnd is the headline contract: a fleet run
// uploading through a live in-process collector, with figures streamed off
// the admit path, must end byte-identical to the batch renderer over the
// final dataset — on calm and faulted (network-chaos) arms, at one and
// four workers. The faulted arm's ack-loss faults produce real duplicate
// deliveries, so the dedup gate in front of the engine is load-bearing.
func TestStreamingEqualsBatchEndToEnd(t *testing.T) {
	setup(t)
	base := fleet.Scenario{
		Seed:       41,
		NumDevices: 500,
		Window:     45 * 24 * time.Hour,
	}

	arms := []struct {
		name    string
		faulted bool
		workers int
	}{
		{"calm/workers=1", false, 1},
		{"calm/workers=4", false, 4},
		{"faulted/workers=1", true, 1},
		{"faulted/workers=4", true, 4},
	}
	liveBytes := map[string][]byte{}
	for _, arm := range arms {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			scenario := base
			scenario.Workers = arm.workers
			if arm.faulted {
				scenario.Faults = faultinject.DefaultNetworkCampaign(scenario.Window)
			}
			fig, claims, _, ds, res := uploadRunLive(t, scenario)
			wantFig, wantClaims := batchJSON(t, res, ds)
			if !bytes.Equal(fig, wantFig) {
				t.Errorf("live figures JSON != batch figures JSON (live %d bytes, batch %d bytes)\nlive:  %.200s\nbatch: %.200s",
					len(fig), len(wantFig), firstDiff(fig, wantFig), firstDiff(wantFig, fig))
			}
			if !bytes.Equal(claims, wantClaims) {
				t.Errorf("live claims JSON != batch claims JSON (live %d bytes, batch %d bytes)", len(claims), len(wantClaims))
			}
			if arm.faulted && ds.Len() == 0 {
				t.Error("faulted arm stored no events — invariant vacuous")
			}
			key := map[bool]string{false: "calm", true: "faulted"}[arm.faulted]
			if prev, ok := liveBytes[key]; ok {
				if !bytes.Equal(prev, fig) {
					t.Errorf("%s live figures differ across worker counts", key)
				}
			} else {
				liveBytes[key] = fig
			}
		})
	}
}

// firstDiff returns a window of a around the first byte where a and b
// differ, for readable failure output.
func firstDiff(a, b []byte) []byte {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	hi := i + 160
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// TestStreamingPermutationProperty feeds the same event multiset to the
// engine in arbitrary arrival permutations and chunkings — including
// duplicate deliveries rejected by a collector-style per-device seq gate —
// and requires the rendered state to match one batch Pass exactly.
func TestStreamingPermutationProperty(t *testing.T) {
	van, _ := setup(t)
	var events []failure.Event
	van.Dataset.Each(func(e *failure.Event) { events = append(events, *e) })
	if len(events) == 0 {
		t.Fatal("empty dataset")
	}
	pass := NewPass(van)
	wantFig, err := pass.FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatal(err)
	}
	wantClaims, err := pass.ClaimsJSON()
	if err != nil {
		t.Fatal(err)
	}

	feed := func(t *testing.T, chunks [][]failure.Event) {
		t.Helper()
		eng := NewStreaming(van, StreamingOptions{QueueChunks: len(chunks) + 1})
		defer eng.Close()
		for _, c := range chunks {
			eng.Ingest(c)
		}
		if err := eng.WaitIdle(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		gotFig, err := eng.FiguresJSON(catalogueCE)
		if err != nil {
			t.Fatal(err)
		}
		gotClaims, err := eng.ClaimsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotFig, wantFig) {
			t.Errorf("permuted streaming figures != batch figures\nnear: %.200s", firstDiff(gotFig, wantFig))
		}
		if !bytes.Equal(gotClaims, wantClaims) {
			t.Error("permuted streaming claims != batch claims")
		}
		if st := eng.Status(); st.Shed != 0 {
			t.Errorf("property feed shed chunks: %+v", st)
		}
	}

	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run("shuffle", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			perm := make([]failure.Event, len(events))
			for i, j := range rng.Perm(len(events)) {
				perm[i] = events[j]
			}
			var chunks [][]failure.Event
			for len(perm) > 0 {
				n := 1 + rng.Intn(2048)
				if n > len(perm) {
					n = len(perm)
				}
				chunks = append(chunks, append([]failure.Event(nil), perm[:n]...))
				perm = perm[n:]
			}
			feed(t, chunks)
		})
	}

	t.Run("dedup-gate", func(t *testing.T) {
		// Batches carry (device, seq) like the wire protocol; devices
		// interleave arbitrarily, each batch may be redelivered (a retry
		// after a lost ack), and the collector's high-water rule decides
		// admission. Only admitted chunks reach the engine.
		rng := rand.New(rand.NewSource(99))
		byDev := map[uint64][]failure.Event{}
		var devs []uint64
		for _, e := range events {
			if _, ok := byDev[e.DeviceID]; !ok {
				devs = append(devs, e.DeviceID)
			}
			byDev[e.DeviceID] = append(byDev[e.DeviceID], e)
		}
		type batch struct {
			dev    uint64
			seq    uint64
			events []failure.Event
		}
		queues := map[uint64][]batch{}
		for _, d := range devs {
			rest := byDev[d]
			var seq uint64
			for len(rest) > 0 {
				n := 1 + rng.Intn(64)
				if n > len(rest) {
					n = len(rest)
				}
				seq++
				queues[d] = append(queues[d], batch{d, seq, append([]failure.Event(nil), rest[:n]...)})
				rest = rest[n:]
			}
		}
		var admitted [][]failure.Event
		lastSeq := map[uint64]uint64{}
		deliver := func(b batch) {
			if b.seq <= lastSeq[b.dev] {
				return // duplicate: rejected by the gate, never reaches the engine
			}
			lastSeq[b.dev] = b.seq
			admitted = append(admitted, b.events)
		}
		var sent []batch
		remaining := append([]uint64(nil), devs...)
		for len(remaining) > 0 {
			i := rng.Intn(len(remaining))
			d := remaining[i]
			b := queues[d][0]
			queues[d] = queues[d][1:]
			deliver(b)
			sent = append(sent, b)
			if rng.Intn(5) == 0 { // retry after a lost ack: duplicate delivery
				deliver(sent[rng.Intn(len(sent))])
			}
			if len(queues[d]) == 0 {
				remaining[i] = remaining[len(remaining)-1]
				remaining = remaining[:len(remaining)-1]
			}
		}
		var total int
		for _, c := range admitted {
			total += len(c)
		}
		if total != len(events) {
			t.Fatalf("gate admitted %d events, want %d", total, len(events))
		}
		feed(t, admitted)
	})
}

// TestStreamingMidRenderDoesNotPerturb renders live JSON halfway through a
// feed and asserts the final state still equals batch — a render settles
// the samples in place, which may reorder them but must never change what
// the accumulators hold.
func TestStreamingMidRenderDoesNotPerturb(t *testing.T) {
	van, _ := setup(t)
	var events []failure.Event
	van.Dataset.Each(func(e *failure.Event) { events = append(events, *e) })
	pass := NewPass(van)
	want, err := pass.FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewStreaming(van, StreamingOptions{})
	defer eng.Close()
	half := len(events) / 2
	eng.Ingest(append([]failure.Event(nil), events[:half]...))
	if err := eng.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FiguresJSON(catalogueCE); err != nil {
		t.Fatalf("mid-feed render: %v", err)
	}
	if _, err := eng.ClaimsJSON(); err != nil {
		t.Fatalf("mid-feed claims: %v", err)
	}
	eng.Window()
	eng.Ingest(append([]failure.Event(nil), events[half:]...))
	if err := eng.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := eng.FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("mid-run render perturbed final state\nnear: %.200s", firstDiff(got, want))
	}
}

// TestStreamingOverflowResync forces hand-off shedding (tiny queue, stalled
// applier) and asserts (a) Ingest never blocks, (b) the shed is counted,
// and (c) Sync rebuilds state equal to a batch pass over the authoritative
// dataset.
func TestStreamingOverflowResync(t *testing.T) {
	van, _ := setup(t)
	var events []failure.Event
	van.Dataset.Each(func(e *failure.Event) { events = append(events, *e) })
	if len(events) < 3 {
		t.Fatal("need at least 3 events")
	}

	eng := NewStreaming(van, StreamingOptions{QueueChunks: 1})
	defer eng.Close()

	// Stall the applier: it drains the queue immediately but blocks on the
	// state lock while applying, so the (capacity-1) queue refills and
	// overflows deterministically.
	eng.smu.Lock()
	eng.Ingest(events[0:1])
	deadline := time.Now().Add(5 * time.Second)
	for {
		eng.qmu.Lock()
		depth := len(eng.queue)
		eng.qmu.Unlock()
		if depth == 0 {
			break // applier picked the chunk up and is parked on smu
		}
		if time.Now().After(deadline) {
			eng.smu.Unlock()
			t.Fatal("applier never picked up the first chunk")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	eng.Ingest(events[1:2]) // queued (capacity 1)
	eng.Ingest(events[2:3]) // over capacity: shed
	if blocked := time.Since(start); blocked > time.Second {
		t.Fatalf("Ingest blocked for %v with a stalled applier", blocked)
	}
	eng.smu.Unlock()

	if err := eng.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := eng.Status()
	if st.Shed == 0 {
		t.Fatal("expected a shed chunk")
	}
	if st.Events != 2 {
		t.Fatalf("applied %d events, want 2 (one chunk shed)", st.Events)
	}

	if !eng.Sync(van) {
		t.Fatal("Sync did not rebuild despite shed chunks")
	}
	got, err := eng.FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewPass(van).FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-resync figures != batch figures\nnear: %.200s", firstDiff(got, want))
	}
	if st := eng.Status(); st.Resyncs != 1 || st.Events != int64(len(events)) {
		t.Errorf("post-resync status: %+v", st)
	}
	// A second Sync with nothing shed since must be a no-op.
	if eng.Sync(van) {
		t.Error("Sync rebuilt again with no shed since the last rebuild")
	}
}

// TestStreamingEmptyContextSafe renders figures, claims and window from a
// zero-value live context (no population, no dwell, no network) — the
// state a live collector serves before any context snapshot is installed.
func TestStreamingEmptyContextSafe(t *testing.T) {
	eng := NewStreaming(LiveInput(trace.NewDataset()), StreamingOptions{})
	defer eng.Close()
	if _, err := eng.FiguresJSON(nil); err != nil {
		t.Fatalf("empty figures: %v", err)
	}
	if _, err := eng.ClaimsJSON(); err != nil {
		t.Fatalf("empty claims: %v", err)
	}
	if snap := eng.Window(); snap.Events != 0 || snap.Samples != 0 {
		t.Fatalf("empty window: %+v", snap)
	}
	if st := eng.Status(); st.Events != 0 || st.Shed != 0 {
		t.Fatalf("empty status: %+v", st)
	}
}

// TestStreamingRaceSoak hammers the engine from concurrent producers and
// live-endpoint readers, then drains and shuts down, asserting no torn
// reads (under -race) and a goroutine-leak-free shutdown (Close joins the
// applier; the HTTP server joins its handlers).
func TestStreamingRaceSoak(t *testing.T) {
	van, _ := setup(t)
	var events []failure.Event
	van.Dataset.Each(func(e *failure.Event) { events = append(events, *e) })
	if len(events) > 20000 {
		events = events[:20000]
	}

	eng := NewStreaming(van, StreamingOptions{QueueChunks: 1 << 16})
	srv := httptest.NewServer(func() http.Handler {
		mux := http.NewServeMux()
		NewLiveAPI(eng, catalogueCE).Routes(mux)
		return mux
	}())

	var wg sync.WaitGroup
	const producers = 4
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := p; i < len(events); i += producers {
				n := 1 + rng.Intn(64)
				hi := i + n*producers
				if hi > len(events) {
					hi = len(events)
				}
				var chunk []failure.Event
				for j := i; j < hi; j += producers {
					chunk = append(chunk, events[j])
				}
				i = hi - producers
				eng.Ingest(chunk)
			}
		}()
	}
	stopRead := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/api/live/figures", "/api/live/claims", "/api/live/window", "/api/live/status",
				"/api/stats", "/api/by-model", "/api/by-isp", "/"}
			for i := 0; ; i++ {
				select {
				case <-stopRead:
					return
				default:
				}
				resp, err := http.Get(srv.URL + paths[i%len(paths)])
				if err != nil {
					t.Errorf("live query: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	// Drain concurrently with the readers, like a collector shutdown with
	// dashboards still attached.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(50 * time.Millisecond)
		close(stopRead)
	}()
	wg.Wait()
	<-done
	if err := eng.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := eng.Status(); st.Shed != 0 {
		t.Errorf("soak shed chunks: %+v", st)
	}
	eng.Close()
	// Close is idempotent and must not hang after the applier exited.
	eng.Close()
	srv.Close()
}

// TestWindowAccum pins the sliding-window boundary arithmetic: bucket
// assignment, head advance, slot eviction, and late-event drops.
func TestWindowAccum(t *testing.T) {
	w := newWindowAccum(3, time.Hour)
	ev := func(start time.Duration, dur time.Duration) *failure.Event {
		return &failure.Event{Kind: failure.DataStall, Start: start, Duration: dur}
	}
	w.Add(ev(30*time.Minute, 10*time.Second))  // bucket 0
	w.Add(ev(90*time.Minute, 20*time.Second))  // bucket 1
	w.Add(ev(150*time.Minute, 30*time.Second)) // bucket 2
	snap := w.snapshot()
	if snap.Events != 3 || snap.LateDrops != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap.FromSeconds != 0 || snap.ToSeconds != (3*time.Hour).Seconds() {
		t.Fatalf("window bounds: %+v", snap)
	}
	if snap.DurMax != 30 || snap.Samples != 3 {
		t.Fatalf("duration summary: %+v", snap)
	}

	// Advancing to bucket 3 evicts bucket 0; a bucket-0 event is now late.
	w.Add(ev(3*time.Hour+time.Minute, 40*time.Second))
	w.Add(ev(30*time.Minute, 50*time.Second))
	snap = w.snapshot()
	if snap.Events != 3 { // buckets 1,2,3
		t.Fatalf("after advance: %+v", snap)
	}
	if snap.LateDrops != 1 {
		t.Fatalf("late drops: %+v", snap)
	}
	if snap.FromSeconds != (1 * time.Hour).Seconds() {
		t.Fatalf("floor after advance: %+v", snap)
	}

	// A jump far beyond the ring empties every old slot.
	w.Add(ev(100*time.Hour, time.Second))
	snap = w.snapshot()
	if snap.Events != 1 {
		t.Fatalf("after far jump: %+v", snap)
	}
	if got, want := snap.ToSeconds, (101 * time.Hour).Seconds(); got != want {
		t.Fatalf("head after far jump: got %v want %v", got, want)
	}

	// Negative starts clamp to bucket zero and are late once evicted.
	lateBefore := w.late
	w.Add(ev(-time.Hour, time.Second))
	if w.late != lateBefore+1 {
		t.Fatalf("negative start not treated as late: late=%d", w.late)
	}
}

// windowEvents returns the fixture run's events sorted by less, and the
// day-bucket count of a window wide enough to hold all of them.
func windowEvents(t *testing.T, less func(a, b failure.Event) int) ([]failure.Event, int) {
	t.Helper()
	van, _ := setup(t)
	events := van.Dataset.Events()
	slices.SortFunc(events, less)
	var last time.Duration
	for _, e := range events {
		last = max(last, e.Start)
	}
	return events, int(last/(24*time.Hour)) + 1
}

func byStartThenDevice(a, b failure.Event) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.DeviceID, b.DeviceID))
}

func byDeviceThenStart(a, b failure.Event) int {
	return cmp.Or(cmp.Compare(a.DeviceID, b.DeviceID), cmp.Compare(a.Start, b.Start))
}

// TestWindowIndependentOfArrivalOrder feeds one run's events in time order
// (as a live fleet delivers them) and in device order (as a boot replay of
// per-device frames does), directly and through the engine in different
// chunkings: a window that holds the whole run must summarize it the same
// way every time.
func TestWindowIndependentOfArrivalOrder(t *testing.T) {
	byTime, days := windowEvents(t, byStartThenDevice)
	byDevice := slices.Clone(byTime)
	slices.SortFunc(byDevice, byDeviceThenStart)
	direct := func(events []failure.Event) WindowSnapshot {
		w := newWindowAccum(days, 24*time.Hour)
		for i := range events {
			w.Add(&events[i])
		}
		return w.snapshot()
	}
	want := direct(byTime)
	if want.LateDrops != 0 || want.Events != int64(len(byTime)) {
		t.Fatalf("window does not hold the whole run: %d of %d events, %d late", want.Events, len(byTime), want.LateDrops)
	}
	if got := direct(byDevice); !reflect.DeepEqual(got, want) {
		t.Errorf("device order:\n got %+v\nwant %+v", got, want)
	}

	van, _ := setup(t)
	for _, arm := range []struct {
		name   string
		events []failure.Event
		chunk  int
	}{{"time/512", byTime, 512}, {"device/16", byDevice, 16}} {
		eng := NewStreaming(van, StreamingOptions{WindowBuckets: days, WindowBucket: 24 * time.Hour})
		for rest := arm.events; len(rest) > 0; {
			n := min(arm.chunk, len(rest))
			eng.Ingest(rest[:n])
			rest = rest[n:]
		}
		if err := eng.WaitIdle(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if st := eng.Status(); st.Shed != 0 {
			t.Fatalf("%s: shed chunks: %+v", arm.name, st)
		}
		if got := eng.Window(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s through the engine:\n got %+v\nwant %+v", arm.name, got, want)
		}
		eng.Close()
	}
}

// TestWindowQuantilesWithinBound checks the stated accuracy on fleet data:
// each window quantile lies within stats.DurationHistMaxRelErr of the exact
// order statistic of the durations the window holds, for the default
// 60-hour window after a time-ordered feed and for a window over the run.
func TestWindowQuantilesWithinBound(t *testing.T) {
	events, days := windowEvents(t, byStartThenDevice)
	for _, c := range []struct {
		buckets int
		width   time.Duration
	}{{60, time.Hour}, {days, 24 * time.Hour}} {
		w := newWindowAccum(c.buckets, c.width)
		for i := range events {
			w.Add(&events[i])
		}
		snap := w.snapshot()
		var held []time.Duration
		for _, e := range events {
			if idx := w.bucketIndex(e.Start); idx >= w.floor() && idx <= w.head {
				held = append(held, e.Duration)
			}
		}
		if len(held) == 0 || snap.Samples != len(held) {
			t.Fatalf("%d×%v window: %d samples, model holds %d", c.buckets, c.width, snap.Samples, len(held))
		}
		slices.Sort(held)
		checkWindowQuantiles(t, snap, held)
	}
}

// TestWindowAddDoesNotAllocate pins the applier's window cost: once a ring
// slot has held an event, adding to it, reusing it after the head wraps,
// and dropping a late event allocate nothing.
func TestWindowAddDoesNotAllocate(t *testing.T) {
	const slots = 4
	w := newWindowAccum(slots, time.Hour)
	e := failure.Event{Kind: failure.DataStall, Duration: 3 * time.Second}
	for h := 0; h < slots; h++ {
		e.Start = time.Duration(h) * time.Hour
		w.Add(&e)
	}
	next := slots
	allocs := testing.AllocsPerRun(200, func() {
		e.Start = time.Duration(next) * time.Hour // a new head: reuses the oldest slot
		e.Duration = time.Duration(next%300) * time.Second
		w.Add(&e)
		e.Start -= time.Minute // the previous bucket, still in the window
		w.Add(&e)
		e.Start = 0 // below the floor: late
		w.Add(&e)
		next++
	})
	if allocs != 0 {
		t.Errorf("windowAccum.Add allocates %v times per run", allocs)
	}
	if w.late == 0 || w.head != int64(next-1) {
		t.Fatalf("feed did not wrap the ring: head %d, late %d", w.head, w.late)
	}
}
