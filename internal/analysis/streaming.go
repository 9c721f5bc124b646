package analysis

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failure"
)

// StreamingOptions configures the live analysis engine.
type StreamingOptions struct {
	// WindowBuckets is the number of sliding-window buckets (default 60).
	WindowBuckets int
	// WindowBucket is the virtual-time width of one bucket (default 1h).
	WindowBucket time.Duration
	// QueueChunks is ignored: the hand-off queue has no bound.
	//
	// Deprecated: only bench/ sets this; ROADMAP item 1 deletes it.
	QueueChunks int
}

// streamingHint pre-sizes the engine's cumulative accumulators, in events.
// It is also the applier's run length: the most events it applies before
// letting the state lock go (a run ends at the first chunk boundary at or
// past it).
const streamingHint = 1 << 12

// applyPause is how long the applier waits, after a drain of fewer than
// streamingHint events, before it looks at the queue again. It stays busy
// while it waits, so Ingest queues without waking it: the ack path pays
// one cross-core wake per pause instead of one per frame. Live state
// trails ingest by at most one pause plus one drain.
const applyPause = 250 * time.Microsecond

// applyPauseHook, when non-nil, returns the pause an engine built after it
// is set waits instead of applyPause: a test lengthens the pause with it
// to show that nothing waits it out.
var applyPauseHook func() time.Duration

func (o StreamingOptions) withDefaults() StreamingOptions {
	if o.WindowBuckets <= 0 {
		o.WindowBuckets = 60
	}
	if o.WindowBucket <= 0 {
		o.WindowBucket = time.Hour
	}
	return o
}

// StreamingStatus reports the engine's ingest accounting.
type StreamingStatus struct {
	Events     int64 `json:"events"`
	Chunks     int64 `json:"chunks"`
	QueueDepth int   `json:"queue_depth"`
	LateDrops  int64 `json:"window_late_drops"`
	// QueueEvents is how far live trails ingest: events handed to Ingest
	// and not yet applied, still queued or in the applier's hands.
	QueueEvents int64 `json:"queue_events"`

	// Shed is always zero: the engine queues every chunk it is handed.
	//
	// Deprecated: only bench/ reads this; ROADMAP item 1 deletes it.
	Shed int64 `json:"-"`
	// Resyncs is always zero: the engine never rebuilds its state.
	//
	// Deprecated: only bench/ reads this; ROADMAP item 1 deletes it.
	Resyncs int64 `json:"-"`
}

// Streaming feeds the batch engine's visitor accumulators directly from
// the collector's admit path, so figures and claims are queryable while
// the fleet is still uploading.
//
// The contract has two halves:
//
//   - The ingest hot path never blocks on analysis. Ingest appends the
//     chunk to an unbounded queue under a mutex held for O(1) work; a
//     dedicated applier goroutine drains the queue into the accumulators.
//     After a short drain the applier pauses for applyPause, still busy,
//     and parks only if the queue is then empty; Ingest signals only a
//     parked applier, so it wakes the applier about once per pause, not
//     once per chunk. WaitIdle and Close cut a pause short. Nothing is
//     shed: a queued chunk is a slice header aliasing events the
//     caller's dataset already holds, so a lagging applier costs 24
//     bytes per chunk, not a rebuild. The queue is double-buffered: the
//     applier takes the whole queue, leaves the spare in its place, and
//     once it has applied the chunks clears the slice it drained (so it
//     pins no chunk) and hands it back as the next spare. A drained slice
//     is kept only if it holds at most streamingHint chunks, so a
//     caught-up engine's Ingest allocates nothing and a backlog's array is
//     let go once it drains.
//
//   - Once the applier is idle and the engine holds the run's context
//     (given to NewStreaming or installed by Sync), the streaming state
//     renders byte-identical figures/claims JSON to a batch Pass over the
//     events it was handed. This holds because every
//     figure extraction is order-independent over the event multiset (raw
//     samples are sorted before they are read and summed in ascending
//     order, per-device state is keyed by device ID, rankings break ties
//     on stable keys), and the dedup gate guarantees the admitted
//     multiset equals the stored multiset.
//
// The engine keeps the last figures and claims documents it rendered,
// each tagged with the state it came from. A poll of an engine that has
// applied nothing and installed no context since is served those bytes
// under the state lock held shared: an idle engine renders once, not once
// per poll.
type Streaming struct {
	qmu     sync.Mutex
	queue   [][]failure.Event
	spare   [][]failure.Event // the applier's drained, cleared queue: the next queue
	closed  bool
	wake    chan struct{} // signalled by Ingest only while the applier is parked; by WaitIdle and Close to end a pause
	idle    *sync.Cond    // broadcast when the applier goes idle
	busy    bool          // applier is mid-drain or pausing; cleared only with the queue seen empty
	waiters int           // WaitIdle calls in progress: the applier does not pause while one waits
	drains  int64         // batches the applier has taken off the queue
	pause   time.Duration // applyPause, unless applyPauseHook says otherwise

	// lag counts events queued or in the applier's hands. Ingest adds under
	// qmu, before the applier can see the chunk; the applier subtracts once
	// per run, so neither side pays a lock for it.
	lag atomic.Int64

	smu    sync.RWMutex
	in     *Input // replaced whole by Sync, never written through
	cum    *passVisitor
	win    *windowAccum
	events int64
	chunks int64
	runs   int64 // exclusive holds the applier took: one per run of chunks

	figures, claims rendered // the last documents rendered, served while current

	done chan struct{}
}

// NewStreaming builds a live engine with the given figure context (its
// fleet.Context feeds the denominator-based figures; the zero context
// reads them as zero until Sync installs the run's; the engine sees no
// events but those Ingest hands it, never in.Dataset). Call Close when
// done to stop the applier goroutine.
func NewStreaming(in Input, opts StreamingOptions) *Streaming {
	opts = opts.withDefaults()
	s := &Streaming{
		in:    &in,
		cum:   newPassVisitor(streamingHint),
		win:   newWindowAccum(opts.WindowBuckets, opts.WindowBucket),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		pause: applyPause,
	}
	if applyPauseHook != nil {
		s.pause = applyPauseHook()
	}
	s.idle = sync.NewCond(&s.qmu)
	go s.apply()
	return s
}

// Ingest hands one chunk of admitted events to the engine. It never
// blocks on analysis: the chunk is queued under a briefly-held mutex, and
// only a closed engine drops it. The caller must not mutate the slice
// afterwards. Safe for concurrent use.
func (s *Streaming) Ingest(events []failure.Event) {
	if len(events) == 0 {
		return
	}
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		return
	}
	s.queue = append(s.queue, events)
	// Set under qmu, as the applier's reset is: set after the unlock, a
	// depth could land on top of the reset and outlast the queue.
	mLiveQueueDepth.Set(float64(len(s.queue)))
	s.lag.Add(int64(len(events)))
	parked := !s.busy
	s.qmu.Unlock()
	mLiveQueueEvents.Add(float64(len(events)))
	if parked {
		// A busy applier, draining or pausing, looks at the queue again,
		// under qmu, before it parks, so only a parked one needs the
		// signal.
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// apply is the engine's only writer of accumulator state.
func (s *Streaming) apply() {
	defer close(s.done)
	pause := time.NewTimer(time.Hour) // one timer for every pause
	pause.Stop()
	var drained [][]failure.Event // the last batch, cleared, not yet handed back
	short := false                // the last drain applied fewer than streamingHint events
	for {
		s.qmu.Lock()
		if drained != nil {
			s.spare, drained = drained, nil
		}
		if short && !s.closed && s.waiters == 0 {
			// Decided under qmu: a WaitIdle or Close after this point
			// signals s.wake, and the pause is its next receiver.
			s.qmu.Unlock()
			s.sleep(pause)
			s.qmu.Lock()
		}
		for len(s.queue) == 0 && !s.closed {
			s.busy = false
			s.idle.Broadcast()
			s.qmu.Unlock()
			<-s.wake
			s.qmu.Lock()
		}
		if len(s.queue) == 0 && s.closed {
			s.busy = false
			s.idle.Broadcast()
			s.qmu.Unlock()
			return
		}
		batch := s.queue
		s.queue, s.spare = s.spare, nil
		s.busy = true
		s.drains++
		// A wake sent before busy was set is spent: this drain takes the
		// chunks it announced. Drop it, so it cannot end the next pause.
		// WaitIdle and Close need no token until the next pause decision,
		// which sees them.
		select {
		case <-s.wake:
		default:
		}
		mLiveQueueDepth.Set(0)
		s.qmu.Unlock()
		mLiveDrains.Inc()

		events := 0
		for rest := batch; len(rest) > 0; {
			n, applied := s.applyRun(rest)
			rest, events = rest[n:], events+applied
		}
		short = events < streamingHint
		if cap(batch) <= streamingHint {
			clear(batch)
			drained = batch[:0]
		}
	}
}

// sleep waits out one pause on t, or until s.wake fires.
func (s *Streaming) sleep(t *time.Timer) {
	t.Reset(s.pause)
	select {
	case <-t.C:
	case <-s.wake:
		// Under go 1.22 timer rules a timer that fired before Stop keeps
		// its tick in C; drain it so the next pause waits in full. The
		// receive does not block, so newer rules, which drop the tick,
		// cannot hang it.
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
	}
}

// applyRun applies the leading chunks of batch under one hold of the state
// lock and returns how many chunks and events it took: chunks are whole,
// and the run ends at the first chunk boundary at or past streamingHint
// events, so a backlog of phone-sized frames costs one acquisition per 256
// of them while Window and Status readers wait for a bounded amount of
// work.
func (s *Streaming) applyRun(batch [][]failure.Event) (n, events int) {
	s.smu.Lock()
	lateBefore := s.win.late
	for n < len(batch) && events < streamingHint {
		chunk := batch[n]
		for i := range chunk {
			s.cum.Visit(&chunk[i])
			s.win.Add(&chunk[i])
		}
		events += len(chunk)
		n++
	}
	s.events += int64(events)
	s.chunks += int64(n)
	s.runs++
	lateDelta := s.win.late - lateBefore
	s.smu.Unlock()
	s.lag.Add(-int64(events))
	mLiveQueueEvents.Add(-float64(events))
	mLiveEvents.Add(int64(events))
	mLiveChunks.Add(int64(n))
	mLiveLateDrops.Add(lateDelta)
	return n, events
}

// WaitIdle blocks until every queued chunk has been applied (or the
// timeout elapses), cutting a pause short. It does not prevent new chunks
// from arriving — call it after the producer has stopped (e.g. post
// collector drain).
func (s *Streaming) WaitIdle(timeout time.Duration) error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if len(s.queue) == 0 && !s.busy {
		return nil
	}
	s.waiters++
	select {
	case s.wake <- struct{}{}:
	default:
	}
	expired := false
	// The timer broadcasts under qmu, so it cannot slip in between a
	// check of expired and the Wait after it.
	t := time.AfterFunc(timeout, func() {
		s.qmu.Lock()
		expired = true
		s.idle.Broadcast()
		s.qmu.Unlock()
	})
	var err error
	for len(s.queue) > 0 || s.busy {
		if expired {
			err = errors.New("analysis: streaming engine still busy after " + timeout.String())
			break
		}
		s.idle.Wait()
	}
	t.Stop()
	s.waiters--
	return err
}

// Close stops the applier goroutine after draining queued chunks, cutting
// a pause short.
func (s *Streaming) Close() {
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	s.qmu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	<-s.done
}

// Sync installs the figure context the denominator-based figures read,
// once the run's context is known. It does not touch the accumulators, so
// it may run at any time.
func (s *Streaming) Sync(in Input) {
	s.smu.Lock()
	s.in = &in
	s.smu.Unlock()
}

// rendered is the last document of one kind the engine rendered, tagged
// with the state it came from: the applied-event count, the installed
// context and, for figures, a copy of the catalogue. Only applyRun and
// Sync change the first two, so a document whose tag still matches is the
// bytes a fresh render would give.
type rendered struct {
	events    int64
	in        *Input
	catalogue []ModelCatalogueEntry
	doc       []byte // nil until a render succeeds
}

// current reports whether r was rendered from s's present state for
// catalogue. The caller holds smu, shared or exclusive.
func (r *rendered) current(s *Streaming, catalogue []ModelCatalogueEntry) bool {
	return r.doc != nil && r.events == s.events && r.in == s.in && slices.Equal(r.catalogue, catalogue)
}

// document returns kept's bytes while they are current, under the state
// lock held shared. Otherwise it takes the lock exclusively (settling
// writes the samples in place, so a render excludes the applier and other
// renders), checks again, so pollers that meet one new state render it
// once, then settles, renders and keeps the result. The hold is the sort of the events applied since
// the previous render and the render itself, which reads the settled
// samples in place (Figure 4 walks the per-kind runs once, no merged copy)
// on up to two cores; analysis_live_render_seconds records it (it is both
// the query's latency and the applier's stall). The Pass is fresh per
// render, so its memos outlive no render.
func (s *Streaming) document(kept *rendered, catalogue []ModelCatalogueEntry, render func(*Pass) ([]byte, error)) ([]byte, error) {
	mLiveQueries.Inc()
	s.smu.RLock()
	if kept.current(s, catalogue) {
		doc := kept.doc
		s.smu.RUnlock()
		return doc, nil
	}
	s.smu.RUnlock()

	s.smu.Lock()
	if kept.current(s, catalogue) {
		doc := kept.doc
		s.smu.Unlock()
		return doc, nil
	}
	start := time.Now()
	s.cum.settle()
	doc, err := render(&Pass{in: s.in, passVisitor: s.cum})
	if err == nil {
		*kept = rendered{events: s.events, in: s.in, catalogue: slices.Clone(catalogue), doc: doc}
	}
	s.smu.Unlock()
	mLiveRenderSeconds.Observe(time.Since(start).Seconds())
	return doc, err
}

// FiguresJSON returns the canonical figures document of live state: the
// kept one while no event has been applied, no context installed and the
// catalogue is unchanged since it was rendered, else a fresh render. The
// caller must not modify the returned bytes.
func (s *Streaming) FiguresJSON(catalogue []ModelCatalogueEntry) ([]byte, error) {
	return s.document(&s.figures, catalogue, func(p *Pass) ([]byte, error) { return p.FiguresJSON(catalogue) })
}

// ClaimsJSON returns the claims scorecard of live state: the kept one
// while no event has been applied and no context installed since it was
// rendered, else a fresh render. The caller must not modify the returned
// bytes.
func (s *Streaming) ClaimsJSON() ([]byte, error) {
	return s.document(&s.claims, nil, (*Pass).ClaimsJSON)
}

// counts hands fn the figure context and the accumulators under the state
// lock held shared, beside other readers and no writer. fn may read
// counters and sample lengths, never a sample: only a render settles them.
func (s *Streaming) counts(fn func(in *Input, v *passVisitor)) {
	s.smu.RLock()
	defer s.smu.RUnlock()
	mLiveQueries.Inc()
	fn(s.in, s.cum)
}

// Window returns the sliding-window summary.
func (s *Streaming) Window() WindowSnapshot {
	s.smu.RLock()
	defer s.smu.RUnlock()
	mLiveQueries.Inc()
	return s.win.snapshot()
}

// Status reports ingest accounting.
func (s *Streaming) Status() StreamingStatus {
	s.smu.RLock()
	st := StreamingStatus{
		Events:    s.events,
		Chunks:    s.chunks,
		LateDrops: s.win.late,
	}
	s.smu.RUnlock()
	s.qmu.Lock()
	st.QueueDepth = len(s.queue)
	s.qmu.Unlock()
	st.QueueEvents = s.lag.Load()
	return st
}
