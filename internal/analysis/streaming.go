package analysis

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// LiveInput builds a zero-value-safe figure context around a live dataset
// for deployments where the run's population/dwell/transition context is
// not yet known (denominator-based figures read as zero until Sync
// installs the real context).
func LiveInput(ds *trace.Dataset) Input {
	return Input{
		Dataset:     ds,
		Transitions: &fleet.TransitionMatrix{},
		Dwell:       &fleet.DwellStats{},
		Network:     &simnet.Network{},
	}
}

// StreamingOptions configures the live analysis engine.
type StreamingOptions struct {
	// WindowBuckets is the number of sliding-window buckets (default 60).
	WindowBuckets int
	// WindowBucket is the virtual-time width of one bucket (default 1h).
	WindowBucket time.Duration
	// QueueChunks bounds the ingest hand-off queue, in chunks. When the
	// queue is full Ingest sheds the chunk instead of blocking (default
	// 1<<15, see defaultQueueChunks); a later Sync rebuilds from the
	// authoritative dataset.
	QueueChunks int
}

// streamingHint pre-sizes a fresh engine's cumulative accumulators, in
// events; Sync re-sizes from the dataset it rebuilds from. It is also the
// applier's run length: the most events it applies before letting the
// state lock go (a run ends at the first chunk boundary at or past it).
const streamingHint = 1 << 12

// defaultQueueChunks is sized by what a queued chunk costs: a 24-byte
// alias of a slice the dataset already holds, so the bound protects
// 768 KiB at worst. It is deep enough that a replayed store of phone-sized
// frames (the applier trails the decoder by 4–12 k of 65 k chunks) and the
// frames that arrive during one live render queue instead of shedding.
const defaultQueueChunks = 1 << 15

func (o StreamingOptions) withDefaults() StreamingOptions {
	if o.WindowBuckets <= 0 {
		o.WindowBuckets = 60
	}
	if o.WindowBucket <= 0 {
		o.WindowBucket = time.Hour
	}
	if o.QueueChunks <= 0 {
		o.QueueChunks = defaultQueueChunks
	}
	return o
}

// StreamingStatus reports the engine's ingest accounting.
type StreamingStatus struct {
	Events     int64 `json:"events"`
	Chunks     int64 `json:"chunks"`
	Shed       int64 `json:"shed"`
	Resyncs    int64 `json:"resyncs"`
	QueueDepth int   `json:"queue_depth"`
	LateDrops  int64 `json:"window_late_drops"`
	// QueueEvents is how far live trails ingest: events handed to Ingest
	// and not yet applied, still queued or in the applier's hands.
	QueueEvents int64 `json:"queue_events"`
	// Stale reports that a chunk was shed since the last Sync: the live
	// figures miss its events until the next one.
	Stale bool `json:"stale"`
}

// Streaming feeds the batch engine's visitor accumulators directly from
// the collector's admit path, so figures and claims are queryable while
// the fleet is still uploading.
//
// The contract has two halves:
//
//   - The ingest hot path never blocks on analysis. Ingest appends the
//     chunk to a bounded queue under a mutex held for O(1) work; a
//     dedicated applier goroutine drains the queue into the accumulators.
//     If the queue is full the chunk is shed (counted, never silently) —
//     the collector's dataset remains authoritative, and Sync rebuilds
//     the accumulators from it, so correctness degrades to "rebuild
//     later", never to "block the wire" or "wrong forever". Later means
//     the caller's next Sync: until then the live figures miss the shed
//     events and Status reports Stale.
//
//   - At end of run, after the collector has drained and Sync has been
//     given the final context, the streaming state renders byte-identical
//     figures/claims JSON to a batch Pass over the final dataset. This
//     holds because every figure extraction is order-independent over the
//     event multiset (raw samples are sorted before they are read and
//     summed in ascending order, per-device state is keyed by device ID,
//     rankings break ties on stable keys), and the dedup gate guarantees
//     the admitted multiset equals the stored multiset.
type Streaming struct {
	opts StreamingOptions

	qmu       sync.Mutex
	queue     [][]failure.Event
	shedQ     int64 // chunks shed since the last resync
	shedTotal int64 // chunks shed over the engine's lifetime
	closed    bool
	wake      chan struct{} // signalled by Ingest only while the applier is parked
	idle      *sync.Cond    // broadcast when the applier goes idle
	busy      bool          // applier is mid-drain; cleared only with the queue seen empty

	// lag counts events queued or in the applier's hands. Ingest adds under
	// qmu, before the applier can see the chunk; the applier subtracts once
	// per run, so neither side pays a lock for it.
	lag atomic.Int64

	smu     sync.RWMutex
	in      Input
	cum     *passVisitor
	win     *windowAccum
	events  int64
	chunks  int64
	runs    int64 // exclusive holds the applier took: one per run of chunks
	resyncs int64

	done chan struct{}
}

// NewStreaming builds a live engine with the given figure context (the
// context's Population/Dwell/Transitions/Network feed denominator-based
// figures; its Dataset is the authoritative store Sync rebuilds from).
// Call Close when done to stop the applier goroutine.
func NewStreaming(in Input, opts StreamingOptions) *Streaming {
	opts = opts.withDefaults()
	s := &Streaming{
		opts: opts,
		in:   in,
		cum:  newPassVisitor(streamingHint),
		win:  newWindowAccum(opts.WindowBuckets, opts.WindowBucket),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	s.idle = sync.NewCond(&s.qmu)
	go s.apply()
	return s
}

// Ingest hands one chunk of admitted events to the engine. It never
// blocks on analysis: the chunk is queued under a briefly-held mutex, and
// shed (counted) if the queue is full. The caller must not retain or
// mutate the slice afterwards. Safe for concurrent use.
func (s *Streaming) Ingest(events []failure.Event) {
	if len(events) == 0 {
		return
	}
	s.qmu.Lock()
	if s.closed || len(s.queue) >= s.opts.QueueChunks {
		// Shed accounting stays under qmu: the shed path must not touch
		// the state lock, or a long render could block the ingest caller.
		dropped := !s.closed
		if dropped {
			s.shedQ++
			s.shedTotal++
		}
		s.qmu.Unlock()
		if dropped {
			mLiveShed.Inc()
		}
		return
	}
	s.queue = append(s.queue, events)
	depth := len(s.queue)
	s.lag.Add(int64(len(events)))
	parked := !s.busy
	s.qmu.Unlock()
	mLiveQueueDepth.Set(float64(depth))
	mLiveQueueEvents.Add(float64(len(events)))
	if parked {
		// A busy applier looks at the queue again, under qmu, before it
		// parks, so only a parked one needs the signal.
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// apply is the engine's only writer of accumulator state outside Sync.
func (s *Streaming) apply() {
	defer close(s.done)
	for {
		s.qmu.Lock()
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
		s.queue = nil
		s.busy = true
		s.qmu.Unlock()
		mLiveQueueDepth.Set(0)

		for len(batch) > 0 {
			batch = batch[s.applyRun(batch):]
		}
	}
}

// applyRun applies the leading chunks of batch under one hold of the state
// lock and returns how many it took: chunks are whole, and the run ends at
// the first chunk boundary at or past streamingHint events, so a backlog
// of phone-sized frames costs one acquisition per 256 of them while Window
// and Status readers wait for a bounded amount of work.
func (s *Streaming) applyRun(batch [][]failure.Event) (n int) {
	events := 0
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
	return n
}

// WaitIdle blocks until every queued chunk has been applied (or the
// timeout elapses). It does not prevent new chunks from arriving — call
// it after the producer has stopped (e.g. post collector drain).
func (s *Streaming) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		// Wake the cond wait on timeout; Broadcast is harmless if the
		// wait already finished.
		select {
		case <-time.After(timeout):
			s.idle.Broadcast()
		case <-stop:
		}
	}()
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for len(s.queue) > 0 || s.busy {
		if time.Now().After(deadline) {
			return errors.New("analysis: streaming engine still busy after " + timeout.String())
		}
		s.idle.Wait()
	}
	return nil
}

// Close stops the applier goroutine after draining queued chunks.
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

// Sync installs the final context and, if any chunk was shed since the
// last rebuild, reconstructs the cumulative and window accumulators from
// the authoritative dataset in one sequential scan. Call after WaitIdle.
// It returns whether a rebuild happened.
func (s *Streaming) Sync(in Input) bool {
	s.qmu.Lock()
	shed := s.shedQ
	s.shedQ = 0
	s.qmu.Unlock()

	s.smu.Lock()
	defer s.smu.Unlock()
	s.in = in
	if shed == 0 {
		return false
	}
	cum := newPassVisitor(passHint(in.Dataset, passWorkers()))
	win := newWindowAccum(s.opts.WindowBuckets, s.opts.WindowBucket)
	var events int64
	in.Dataset.Each(func(e *failure.Event) {
		cum.Visit(e)
		win.Add(e)
		events++
	})
	s.cum, s.win, s.events = cum, win, events
	s.resyncs++
	mLiveResyncs.Inc()
	return true
}

// pass hands out the engine's accumulators as a Pass, settled, under the
// state lock held exclusively until release is called: settling writes the
// samples in place, so a render excludes the applier and other renders.
// The hold is the sort of the events applied since the previous render and
// the render itself, which reads the settled samples in place (Figure 4
// walks the per-kind runs once, no merged copy); release records it (it is
// both the query's latency and the applier's stall).
func (s *Streaming) pass() (p *Pass, release func()) {
	s.smu.Lock()
	start := time.Now()
	s.cum.settle()
	return &Pass{in: s.in, passVisitor: s.cum}, func() {
		s.smu.Unlock()
		mLiveRenderSeconds.Observe(time.Since(start).Seconds())
	}
}

// FiguresJSON renders the canonical figures document from live state.
func (s *Streaming) FiguresJSON(catalogue []ModelCatalogueEntry) ([]byte, error) {
	p, release := s.pass()
	defer release()
	mLiveQueries.Inc()
	return p.FiguresJSON(catalogue)
}

// ClaimsJSON renders the claims scorecard from live state.
func (s *Streaming) ClaimsJSON() ([]byte, error) {
	p, release := s.pass()
	defer release()
	mLiveQueries.Inc()
	return p.ClaimsJSON()
}

// counts hands fn the figure context and the accumulators under the state
// lock held shared, beside other readers and no writer. fn may read
// counters and sample lengths, never a sample: only a render settles them.
func (s *Streaming) counts(fn func(in Input, v *passVisitor)) {
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
		Resyncs:   s.resyncs,
		LateDrops: s.win.late,
	}
	s.smu.RUnlock()
	s.qmu.Lock()
	st.Shed = s.shedTotal
	st.Stale = s.shedQ > 0
	st.QueueDepth = len(s.queue)
	s.qmu.Unlock()
	st.QueueEvents = s.lag.Load()
	return st
}
