package analysis

import (
	"bufio"
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/telephony"
	"repro/internal/trace"
)

// liveOver feeds events to a fresh engine in chunks of at most chunk events
// and waits for the applier. The caller closes the engine.
func liveOver(t testing.TB, in Input, events []failure.Event, chunk int) *Streaming {
	t.Helper()
	eng := NewStreaming(in, StreamingOptions{QueueChunks: len(events)/chunk + 2})
	for lo := 0; lo < len(events); lo += chunk {
		hi := lo + chunk
		if hi > len(events) {
			hi = len(events)
		}
		eng.Ingest(events[lo:hi])
	}
	if err := eng.WaitIdle(30 * time.Second); err != nil {
		eng.Close()
		t.Fatal(err)
	}
	return eng
}

// TestUnknownKindIsCountedEverywhere sends events whose kind byte is out of
// range (the v3 decoder does not validate it) through a batch Pass and
// through the live engine. They are failures: `events` and Figure 4 count
// them, duration_by_kind has no row for them, and live bytes still equal
// batch bytes. A Figure 4 built from only the NumKinds named buckets would
// disagree with `events`, and would lose the sample's maximum here.
func TestUnknownKindIsCountedEverywhere(t *testing.T) {
	van, _ := setup(t)
	var events []failure.Event
	var latest time.Duration
	van.Dataset.Each(func(e *failure.Event) {
		if len(events) < 6000 {
			events = append(events, *e)
			if e.Start > latest {
				latest = e.Start
			}
		}
	})
	const longest = 1000 * time.Hour // above every real duration
	const unknown = 3
	for i := 0; i < unknown; i++ {
		e := events[i*1000]
		e.Kind = 200
		e.Duration = longest - time.Duration(i)*time.Second
		e.Start = latest // inside the sliding window, not a late drop
		events = append(events, e)
	}
	in := van
	in.Dataset = trace.FromEvents(events)

	pass := NewPass(in)
	doc := FiguresDocOf(pass, catalogueCE)
	if doc.Events != len(events) {
		t.Errorf("events = %d, want %d", doc.Events, len(events))
	}
	f4 := pass.Figure4()
	if f4.CDF.N() != len(events) {
		t.Errorf("Figure 4 holds %d samples, want %d", f4.CDF.N(), len(events))
	}
	if got := f4.CDF.Max(); got != longest.Seconds() {
		t.Errorf("Figure 4 sample max = %v s, want the unknown-kind event's %v s", got, longest.Seconds())
	}
	named := 0
	for kind, d := range pass.DurationByKind() {
		if int(kind) >= failure.NumKinds {
			t.Errorf("duration_by_kind has a row for kind %d", kind)
		}
		named += d.CDF.N()
	}
	if named != len(events)-unknown {
		t.Errorf("duration_by_kind rows hold %d samples, want %d", named, len(events)-unknown)
	}

	wantFig, err := pass.FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatal(err)
	}
	wantClaims, err := pass.ClaimsJSON()
	if err != nil {
		t.Fatal(err)
	}
	eng := liveOver(t, in, events, 500)
	defer eng.Close()
	gotFig, err := eng.FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatal(err)
	}
	gotClaims, err := eng.ClaimsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFig, wantFig) {
		t.Errorf("live figures != batch figures\nnear: %.200s", firstDiff(gotFig, wantFig))
	}
	if !bytes.Equal(gotClaims, wantClaims) {
		t.Error("live claims != batch claims")
	}
	// The sliding window indexes a per-kind array: it counts the event and
	// gives it no by_kind row.
	snap := eng.Window()
	var byKind int64
	for _, kc := range snap.ByKind {
		byKind += kc.Count
	}
	if snap.Events != byKind+unknown {
		t.Errorf("window: %d events, %d in by_kind rows, want %d apart", snap.Events, byKind, unknown)
	}
}

// TestOutOfRangeEnumBytes stores one event per enum field with that field
// set to 0xFF — the v3 decoder admits any byte there — and renders
// everything a collector booted on that store serves. Each event counts in
// the totals and gets no row in the table its byte would have indexed;
// nothing may panic, and live bytes still equal batch bytes.
func TestOutOfRangeEnumBytes(t *testing.T) {
	events := make([]failure.Event, 6)
	for i := range events {
		events[i] = failure.Event{
			Kind: failure.DataStall, DeviceID: uint64(i + 1), ModelID: 3, AndroidVersion: 10,
			ISP: simnet.ISPB, Region: geo.Urban, RAT: telephony.RAT4G, Level: telephony.Level3,
			Start: time.Hour, Duration: 5 * time.Second,
			OpsExecuted: 1, ResolvedBy: android.ResolvedOp1,
		}
	}
	events[0].Kind = 0xFF
	events[1].ISP = 0xFF
	events[2].Region = 0xFF
	events[3].RAT = 0xFF
	events[4].Level = 0xFF
	events[5].ResolvedBy = 0xFF

	frame, err := trace.AppendBatchV3(nil, &trace.Batch{DeviceID: 1, Seq: 1, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	stored, _, err := trace.ReadFrameRaw(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		t.Fatalf("the decoder refused the frame: %v", err)
	}
	if !reflect.DeepEqual(stored.Events, events) {
		t.Fatalf("the frame did not round-trip:\n got %+v\nwant %+v", stored.Events, events)
	}

	in := LiveInput(trace.FromEvents(stored.Events))
	pass := NewPass(in)
	wantFig, err := pass.FiguresJSON(benchCatalogue())
	if err != nil {
		t.Fatal(err)
	}
	wantClaims, err := pass.ClaimsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if doc := FiguresDocOf(pass, nil); doc.Events != len(events) {
		t.Errorf("events = %d, want %d", doc.Events, len(events))
	}
	isps := 0
	for _, g := range pass.ByISP() {
		isps += g.Failing
	}
	if isps != len(events)-1 {
		t.Errorf("by_isp rows hold %d failing devices, want all but the one with ISP byte 0xFF (%d)", isps, len(events)-1)
	}

	eng := liveOver(t, in, stored.Events, 4)
	defer eng.Close()
	gotFig, err := eng.FiguresJSON(benchCatalogue())
	if err != nil {
		t.Fatal(err)
	}
	gotClaims, err := eng.ClaimsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFig, wantFig) {
		t.Errorf("live figures != batch figures\nnear: %.200s", firstDiff(gotFig, wantFig))
	}
	if !bytes.Equal(gotClaims, wantClaims) {
		t.Error("live claims != batch claims")
	}
	if snap := eng.Window(); snap.Events != int64(len(events)) {
		t.Errorf("window holds %d events, want %d", snap.Events, len(events))
	}
}

// TestLiveRenderAtRestCopiesNoSample pins what a render of an engine that
// has already rendered once costs in memory: the document and its
// scaffolding, well under one float per event — no merged copy of Figure
// 4's sample (8 B/event), and no copy or radix scratch array per sample
// per call, which is what sorting copies costs (more than 7 x 8 B/event
// for one figures document). Byte counts, not timings.
func TestLiveRenderAtRestCopiesNoSample(t *testing.T) {
	van, _ := setup(t)
	// The shared fleet's events, twice (the engine counts a multiset; only
	// the dedup gate in front of it knows about duplicates): a realistic
	// device/station/kind mix at N > 200k.
	events := append(van.Dataset.Events(), van.Dataset.Events()...)
	n := len(events)
	if n < 200_000 {
		t.Fatalf("only %d events", n)
	}
	eng := liveOver(t, van, events, 512)
	defer eng.Close()
	first, err := eng.FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, err := eng.FiguresJSON(catalogueCE)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("two renders of an engine at rest differ")
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*n)
	t.Logf("second render of %d events allocated %d bytes (%.1f per event)", n, got, float64(got)/float64(n))
	if got >= limit {
		t.Errorf("second render allocated %d bytes (%.1f per event), want < %d", got, float64(got)/float64(n), limit)
	}
}

// TestLiveRenderBesideIngest runs every kind of live reader beside a
// producer of 16-event chunks, under the default queue. Renders settle the
// samples in place, so they must exclude the applier and each other (run
// under -race); the lock hold must stay short enough that a producer
// pacing itself on the queue depth never sheds; and none of it may change
// what the engine finally renders.
func TestLiveRenderBesideIngest(t *testing.T) {
	van, _ := setup(t)
	var events []failure.Event
	van.Dataset.Each(func(e *failure.Event) {
		if len(events) < 16_000 {
			events = append(events, *e)
		}
	})
	in := van
	in.Dataset = trace.FromEvents(events)
	want, err := NewPass(in).FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewStreaming(van, StreamingOptions{})
	defer eng.Close()
	readers := []func() error{
		func() error { _, err := eng.FiguresJSON(catalogueCE); return err },
		func() error { _, err := eng.FiguresJSON(catalogueCE); return err },
		func() error { _, err := eng.ClaimsJSON(); return err },
		func() error { eng.Window(); return nil },
		func() error { eng.Status(); return nil },
	}
	rounds := make([]atomic.Int64, len(readers))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(); err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
				rounds[i].Add(1)
				// Pollers, not spinners: five readers re-taking the lock
				// back to back leave the applier one 16-event chunk per
				// turn, and the test would measure that, not the render.
				time.Sleep(time.Millisecond)
			}
		}()
	}
	everyReaderPast := func(n int64) bool {
		for i := range rounds {
			if rounds[i].Load() < n {
				return false
			}
		}
		return true
	}

	const chunk = 16
	half := len(events) / 2 / chunk * chunk
	for lo := 0; lo < len(events); lo += chunk {
		// Pace on the queue: at most 512 chunks waiting, far inside the bound.
		for eng.Status().QueueDepth > 512 {
			time.Sleep(100 * time.Microsecond)
		}
		if lo == half {
			// Every reader gets a turn while half the events are still to
			// come, so later renders merge a tail into a settled prefix.
			for deadline := time.Now().Add(30 * time.Second); !everyReaderPast(1); {
				if time.Now().After(deadline) {
					t.Fatal("readers made no progress beside ingest")
				}
				time.Sleep(time.Millisecond)
			}
		}
		hi := lo + chunk
		if hi > len(events) {
			hi = len(events)
		}
		eng.Ingest(events[lo:hi])
	}
	close(stop)
	wg.Wait()

	if err := eng.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if eng.Sync(in) {
		t.Error("Sync rebuilt: chunks were shed")
	}
	if st := eng.Status(); st.Shed != 0 || st.Events != int64(len(events)) {
		t.Errorf("status after ingest: %+v, want %d events and nothing shed", st, len(events))
	}
	got, err := eng.FiguresJSON(catalogueCE)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("live figures after concurrent renders != batch figures\nnear: %.200s", firstDiff(got, want))
	}
}
