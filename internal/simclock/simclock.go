// Package simclock provides a deterministic discrete-event simulation
// runtime: a virtual clock and an event scheduler.
//
// The paper's measurement spans eight months of wall-clock time on real
// phones. We substitute virtual time: every timer in the reproduced Android
// stack (probation timers, probe timeouts, stall detection windows) is
// scheduled on a Scheduler, so months of fleet activity execute in seconds
// and runs are exactly reproducible for a given seed.
//
// Internally the scheduler is a two-level timer wheel: events for the
// current coarse tick live in a 4-ary min-heap, while events for future
// ticks are batched into unsorted per-tick buckets (an O(1) append) and
// heapified only when their tick is promoted. Months-out episode plans
// therefore never pay per-event heap maintenance against the sub-second
// timers of the episode currently executing. Heap and buckets hold only
// pointer-free 24-byte (at, seq, slot) keys; an event's callback, index
// and timer live in a side table at its slot, recycled through a free
// list, so Post/PostIdx scheduling allocates nothing once the table has
// warmed and a sift moves no pointer the garbage collector must see. The
// execution order is identical to a single global (at, seq) min-heap:
// (at, seq) is a total order, so any correct heap pops the same sequence.
//
// Three ways to schedule never allocate once the wheel has warmed up:
// Post (and PostAfter) for a fire-and-forget func(), PostIdx for one bound
// func(int32) shared by many planned events, and Arm (and ArmAfter) for a
// caller-owned Timer that is re-armed in place: each Arm supersedes the
// timer's previous arming, which then acts exactly like a stopped timer.
// At and After allocate a fresh Timer per call for callers that want a
// one-off stoppable handle.
package simclock

import (
	"fmt"
	"math/bits"
	"time"
)

// Time is virtual time elapsed since the start of the simulation.
type Time = time.Duration

// tickSpan is the wheel granularity. One virtual hour keeps an episode's
// burst of sub-minute timers inside the current-tick heap while spreading
// a window's worth of planned episodes across cheap unsorted buckets.
const tickSpan = time.Hour

// key orders one scheduled event in the wheel. It holds no pointer: the
// event's payload is the side-table entry at slot.
type key struct {
	at   Time
	seq  uint64
	slot int32
}

// less orders keys by (at, seq); seq breaks ties so same-time events fire
// in scheduling order, which keeps runs deterministic.
func (k key) less(o key) bool { return k.lessBit(o) != 0 }

// lessBit is less as 1 or 0: the borrow out of the 128-bit subtraction
// (at, seq) - (o.at, o.seq), at never being negative, so that siftDown can
// select a child arithmetically instead of branching on the keys.
func (k key) lessBit(o key) int {
	_, borrow := bits.Sub64(k.seq, o.seq, 0)
	_, borrow = bits.Sub64(uint64(k.at), uint64(o.at), borrow)
	return int(borrow)
}

// entry is a scheduled event's payload: fn, or ifn applied to idx. A timer
// event carries its Timer and the generation it was armed with; it is live
// only while the timer is still armed at that generation.
type entry struct {
	fn  func()
	ifn func(int32)
	t   *Timer
	idx int32
	gen uint32
}

// live reports whether the event still runs when popped: handle-free
// events always do, a timer event only if neither Stop nor a later Arm
// superseded it.
func (e *entry) live() bool {
	return e.t == nil || (e.t.armed && e.t.gen == e.gen)
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; a fleet run shards devices across independent
// Schedulers instead of sharing one.
type Scheduler struct {
	now Time
	seq uint64
	// epoch counts Resets; a Timer armed in an earlier epoch is inactive.
	epoch uint32

	// curTick is the most recently promoted wheel tick. cur is a 4-ary
	// min-heap on (at, seq) holding every event due at or before curTick's
	// end; far holds unsorted buckets for strictly later ticks, ordered by
	// the ticks min-heap. free recycles drained bucket arrays. queued
	// counts all stored events, including stopped and superseded timer
	// armings not yet popped.
	curTick int64
	cur     []key
	far     map[int64][]key
	ticks   []int64
	free    [][]key
	queued  int

	// slots holds each stored event's payload at its key's slot; freeSlots
	// lists the slots of popped events for reuse. A popped slot keeps its
	// stale payload until it is reused or Reset clears the table.
	slots     []entry
	freeSlots []int32
}

// NewScheduler returns a Scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{far: make(map[int64][]key)}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Timer is a stoppable scheduled event. The zero value is an idle timer
// ready for Arm; a caller that re-arms one timer for its whole life (a
// ticker, a retry, a probation) embeds it by value, so arming it
// allocates nothing. Each Arm bumps the timer's generation, so the event
// of a superseded arming — like that of a stopped one — does not run, is
// not counted by Run and does not advance Now when it is popped.
type Timer struct {
	s     *Scheduler
	gen   uint32
	epoch uint32
	armed bool
}

// Stop cancels the timer. It reports whether the call prevented the timer
// from firing (false if it already fired, was already stopped, or was
// never armed).
func (t *Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	t.armed = false
	return true
}

// Active reports whether the timer is armed and still pending. A Reset of
// its scheduler discards the pending arming.
func (t *Timer) Active() bool { return t != nil && t.armed && t.epoch == t.s.epoch }

// Arm schedules fn on t at absolute virtual time at, superseding any
// pending arming of t. It allocates nothing: the event's slot points back
// at the caller-owned timer. Scheduling in the past panics: it is always a
// logic error in a discrete-event model.
func (s *Scheduler) Arm(t *Timer, at Time, fn func()) {
	if fn == nil {
		panic("simclock: nil event function")
	}
	t.s, t.epoch, t.armed = s, s.epoch, true
	t.gen++
	s.schedule(at, entry{fn: fn, gen: t.gen, t: t})
}

// ArmAfter arms t to run fn d after the current virtual time.
func (s *Scheduler) ArmAfter(t *Timer, d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.Arm(t, s.now+d, fn)
}

// At schedules fn to run at absolute virtual time at and returns a fresh
// stoppable handle.
func (s *Scheduler) At(at Time, fn func()) *Timer {
	t := new(Timer)
	s.Arm(t, at, fn)
	return t
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Post schedules fn at absolute virtual time at without a handle. It is
// the fire-and-forget variant of At for call sites that never Stop the
// timer: no Timer is allocated.
func (s *Scheduler) Post(at Time, fn func()) {
	if fn == nil {
		panic("simclock: nil event function")
	}
	s.schedule(at, entry{fn: fn})
}

// PostAfter schedules fn to run d after the current virtual time, without
// a handle.
func (s *Scheduler) PostAfter(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.Post(s.now+d, fn)
}

// PostIdx schedules fn(idx) at absolute virtual time at. A caller that
// pre-plans many events can reuse one method-value fn for all of them and
// pass the plan index here, so scheduling N events costs zero allocations
// instead of N closures.
func (s *Scheduler) PostIdx(at Time, fn func(int32), idx int32) {
	if fn == nil {
		panic("simclock: nil event function")
	}
	s.schedule(at, entry{ifn: fn, idx: idx})
}

// schedule stores the event's payload in a free slot, stamps its sequence
// number and files its key: current-tick (or earlier, for schedules issued
// between Runs) events go straight into the heap, future ticks into
// unsorted buckets.
func (s *Scheduler) schedule(at Time, e entry) {
	if at < s.now {
		panic(fmt.Sprintf("simclock: schedule at %v before now %v", at, s.now))
	}
	var slot int32
	if n := len(s.freeSlots); n > 0 {
		slot = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		s.slots[slot] = e
	} else {
		slot = int32(len(s.slots))
		s.slots = append(s.slots, e)
	}
	s.seq++
	s.queued++
	k := key{at: at, seq: s.seq, slot: slot}
	tk := int64(at / tickSpan)
	if tk <= s.curTick {
		s.pushCur(k)
		return
	}
	b, ok := s.far[tk]
	if !ok {
		if n := len(s.free); n > 0 {
			b = s.free[n-1]
			s.free = s.free[:n-1]
		}
		s.pushTick(tk)
	}
	s.far[tk] = append(b, k)
}

// promote drains bucket after bucket into the current-tick heap until it
// holds at least one event, reporting whether any event is pending.
func (s *Scheduler) promote() bool {
	for len(s.cur) == 0 {
		if len(s.ticks) == 0 {
			return false
		}
		tk := s.popTick()
		b := s.far[tk]
		delete(s.far, tk)
		s.curTick = tk
		// Adopt the bucket's storage as the new heap and recycle the
		// drained heap's array as a future bucket.
		if cap(s.cur) > 0 {
			s.free = append(s.free, s.cur[:0])
		}
		s.cur = b
		for i := (len(b) - 2) / 4; i >= 0; i-- {
			s.siftDown(i, b[i])
		}
	}
	return true
}

// Step executes the single earliest pending event, advancing the clock to
// its deadline. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	if _, ok := s.peekAt(); !ok {
		return false
	}
	s.fire()
	return true
}

// fire pops the heap's top event, which peekAt has found live, and runs it.
func (s *Scheduler) fire() {
	at, e := s.popCur()
	if e.t != nil {
		e.t.armed = false
	}
	s.now = at
	if e.fn != nil {
		e.fn()
	} else {
		e.ifn(e.idx)
	}
}

// peekAt returns the deadline of the earliest pending event, discarding
// stopped and superseded timer armings it encounters on the way; the event
// is then the current-tick heap's top.
func (s *Scheduler) peekAt() (Time, bool) {
	for {
		if len(s.cur) == 0 && !s.promote() {
			return 0, false
		}
		if k := s.cur[0]; s.slots[k.slot].live() {
			return k.at, true
		}
		s.popCur()
	}
}

// Run executes events in timestamp order until the queue is empty or the
// clock passes until. It returns the number of events executed. The clock
// is left at until if the queue drained earlier, so a subsequent Run
// continues from a well-defined point.
func (s *Scheduler) Run(until Time) int {
	n := 0
	for {
		at, ok := s.peekAt()
		if !ok || at > until {
			break
		}
		s.fire()
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// RunAll executes events until the queue is empty, returning the number of
// events executed.
func (s *Scheduler) RunAll() int {
	n := 0
	for s.Step() {
		n++
	}
	return n
}

// Reset returns the scheduler to its initial state — clock at zero, no
// pending events — while retaining its internal storage. A fleet worker
// lane runs one device to completion, Resets, and reuses the scheduler
// for the next device, so steady-state simulation does not grow the heap.
//
// Pending timer armings are discarded with everything else: a Timer armed
// before the Reset reports inactive and may be armed again.
func (s *Scheduler) Reset() {
	s.now, s.seq, s.curTick = 0, 0, 0
	s.epoch++
	s.queued = 0
	s.cur = s.cur[:0]
	for tk, b := range s.far {
		s.free = append(s.free, b[:0])
		delete(s.far, tk)
	}
	s.ticks = s.ticks[:0]
	clear(s.slots) // drop the payloads' references
	s.slots = s.slots[:0]
	s.freeSlots = s.freeSlots[:0]
}

// QueueLen returns the raw event-queue length, including stopped or
// superseded timer armings not yet popped. Unlike Pending it is O(1), so
// instrumentation (the fleet's per-shard queue-depth gauge) can sample it
// every simulated hour without scanning the heap.
func (s *Scheduler) QueueLen() int { return s.queued }

// Pending returns the number of pending events that will still run:
// stopped and superseded timer armings are not counted.
func (s *Scheduler) Pending() int {
	n := 0
	for _, k := range s.cur {
		if s.slots[k.slot].live() {
			n++
		}
	}
	for _, b := range s.far {
		for _, k := range b {
			if s.slots[k.slot].live() {
				n++
			}
		}
	}
	return n
}

// --- current-tick heap: 4-ary min-heap on (at, seq) over keys ------------
//
// Node i's children are 4i+1 … 4i+4. Both sifts carry the moving key in a
// register and shift the nodes it passes into the hole, writing it once
// where it lands.

func (s *Scheduler) pushCur(k key) {
	h := append(s.cur, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	s.cur = h
}

// popCur removes the earliest current-tick event, frees its slot and
// returns its deadline and payload.
func (s *Scheduler) popCur() (Time, entry) {
	top := s.cur[0]
	n := len(s.cur) - 1
	last := s.cur[n]
	s.cur = s.cur[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
	s.queued--
	s.freeSlots = append(s.freeSlots, top.slot)
	return top.at, s.slots[top.slot]
}

// siftDown places k into the hole at i, whose subtrees are heaps, moving
// the least child up while it is less than k.
func (s *Scheduler) siftDown(i int, k key) {
	h := s.cur
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+3 < n {
			// A full family: a two-round tournament, selected arithmetically
			// so that no branch depends on the keys.
			a := c + h[c+1].lessBit(h[c])
			b := c + 2 + h[c+3].lessBit(h[c+2])
			m = a + (b-a)*h[b].lessBit(h[a])
		} else {
			for j := c + 1; j < n; j++ {
				if h[j].less(h[m]) {
					m = j
				}
			}
		}
		if !h[m].less(k) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = k
}

// --- tick heap: min-heap over bucket keys -------------------------------

func (s *Scheduler) pushTick(tk int64) {
	s.ticks = append(s.ticks, tk)
	i := len(s.ticks) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.ticks[i] >= s.ticks[parent] {
			break
		}
		s.ticks[i], s.ticks[parent] = s.ticks[parent], s.ticks[i]
		i = parent
	}
}

func (s *Scheduler) popTick() int64 {
	tk := s.ticks[0]
	n := len(s.ticks) - 1
	s.ticks[0] = s.ticks[n]
	s.ticks = s.ticks[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && s.ticks[r] < s.ticks[l] {
			min = r
		}
		if s.ticks[min] >= s.ticks[i] {
			break
		}
		s.ticks[i], s.ticks[min] = s.ticks[min], s.ticks[i]
		i = min
	}
	return tk
}
