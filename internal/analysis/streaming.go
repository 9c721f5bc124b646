package analysis

import (
	"errors"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// LiveInput builds a zero-value-safe figure context around a live dataset
// for deployments where the run's population/dwell/transition context is
// not yet known (denominator-based figures read as zero until SetContext
// or Sync installs the real context).
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
	// 1024); a later Sync rebuilds from the authoritative dataset.
	QueueChunks int
}

// streamingHint pre-sizes a fresh engine's cumulative accumulators, in
// events; Sync re-sizes from the dataset it rebuilds from.
const streamingHint = 1 << 12

func (o StreamingOptions) withDefaults() StreamingOptions {
	if o.WindowBuckets <= 0 {
		o.WindowBuckets = 60
	}
	if o.WindowBucket <= 0 {
		o.WindowBucket = time.Hour
	}
	if o.QueueChunks <= 0 {
		o.QueueChunks = 1024
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
//     later", never to "block the wire" or "wrong forever".
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
	wake      chan struct{}
	idle      *sync.Cond // broadcast when the applier goes idle
	busy      bool       // applier is mid-drain

	smu     sync.RWMutex
	in      Input
	cum     *passVisitor
	win     *windowAccum
	events  int64
	chunks  int64
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
	s.qmu.Unlock()
	mLiveQueueDepth.Set(float64(depth))
	select {
	case s.wake <- struct{}{}:
	default:
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

		for _, chunk := range batch {
			s.smu.Lock()
			lateBefore := s.win.late
			for i := range chunk {
				s.cum.Visit(&chunk[i])
				s.win.Add(&chunk[i])
			}
			s.events += int64(len(chunk))
			s.chunks++
			lateDelta := s.win.late - lateBefore
			s.smu.Unlock()
			mLiveEvents.Add(int64(len(chunk)))
			mLiveChunks.Inc()
			if lateDelta > 0 {
				mLiveLateDrops.Add(lateDelta)
			}
		}
	}
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

// SetContext replaces the figure context (population, dwell, transitions,
// network, authoritative dataset). Call it when the run's final context
// is known, before rendering end-of-run figures.
func (s *Streaming) SetContext(in Input) {
	s.smu.Lock()
	s.in = in
	s.smu.Unlock()
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
	cum := newPassVisitor(passHint(in.Dataset))
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
// The hold is the sort of the events applied since the previous render,
// one linear merge for Figure 4, and the render itself; release records it
// (it is both the query's latency and the applier's stall).
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
	st.QueueDepth = len(s.queue)
	s.qmu.Unlock()
	return st
}
