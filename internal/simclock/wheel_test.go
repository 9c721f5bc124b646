package simclock

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestWheelMatchesReferenceOrder drives the wheel scheduler with a
// randomized workload — schedules far beyond the current tick, same-tick
// bursts, exact ties, and events that schedule more events — and checks
// the execution order against a straightforward sorted-by-(at, seq) model.
func TestWheelMatchesReferenceOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		s := NewScheduler()

		type ref struct {
			at  Time
			seq int
		}
		var want []ref
		var got []ref
		seq := 0

		var add func(at Time, depth int)
		add = func(at Time, depth int) {
			seq++
			id := seq
			want = append(want, ref{at, id})
			s.Post(at, func() {
				got = append(got, ref{at, id})
				if depth < 2 && r.Intn(3) == 0 {
					// Events scheduling events, both same-tick and far.
					add(s.Now()+time.Duration(r.Intn(90))*time.Minute, depth+1)
				}
			})
		}
		for i := 0; i < 200; i++ {
			// Mix sub-tick offsets, exact duplicates, and far ticks.
			at := time.Duration(r.Intn(96)) * 15 * time.Minute
			add(at, 0)
			if r.Intn(4) == 0 {
				add(at, 0) // exact tie: must fire in scheduling order
			}
		}
		s.RunAll()

		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: executed %d events, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d fired as %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}

	// Caller-owned timers: random op sequences — armings, re-armings that
	// supersede, stops, re-armings across tick boundaries and across
	// Resets — against the reference model, which drops superseded
	// armings.
	var total refSched
	for trial := 0; trial < 50; trial++ {
		ops := make([]byte, 400)
		rand.New(rand.NewSource(int64(trial))).Read(ops)
		ref, _ := checkArmOps(t, ops)
		total.superseded += ref.superseded
		total.stopped += ref.stopped
		total.carried += ref.carried
	}
	if total.superseded == 0 || total.stopped == 0 || total.carried == 0 {
		t.Fatalf("workload never superseded (%d), stopped (%d) or re-armed across a Reset (%d) a timer",
			total.superseded, total.stopped, total.carried)
	}

	// The retry storm, at the depth a fleet lane reaches: at least 2 500
	// entries pending in one tick when its callbacks re-post.
	ref, w := checkArmOps(t, retryStormOps)
	if w.maxHeap < 2500 {
		t.Fatalf("the retry storm re-posted beside at most %d entries of one tick, want at least 2500", w.maxHeap)
	}
	if ref.superseded == 0 || ref.stopped == 0 {
		t.Fatalf("the retry storm never superseded (%d) or stopped (%d) a timer", ref.superseded, ref.stopped)
	}
}

// retryStormOps is the fleet's collision-retry shape as driveArmOps ops: a
// storm of 2 620 PostIdx entries on one tick's 10 s grid (so same-at
// ties), whose callbacks re-post 30–90 s out and supersede and stop timer
// armings, so popped slots are reused. Timer armings, a post and a Stop
// ride along; a Reset lands in mid-storm, and a second storm, capped at
// stormCap, follows it.
var retryStormOps = []byte{6, 130, 1, 3, 2, 14, 4, 9, 0, 9, 3, 2, 5, 4, 6, 200, 1, 40, 5, 1, 4, 47}

// FuzzSchedulerArm drives arbitrary op sequences through the wheel and the
// reference model and requires the same firing order, Run counts, Now,
// Pending and timer activity.
func FuzzSchedulerArm(f *testing.F) {
	f.Add([]byte{1, 5, 1, 5, 4, 47, 3, 1, 2, 200, 5, 4, 1, 5, 4, 47})
	f.Add([]byte{2, 7, 2, 31, 5, 8, 2, 7, 3, 7, 4, 20, 5, 0, 1, 1})
	f.Add(retryStormOps)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		checkArmOps(t, ops)
	})
}

// checkArmOps runs ops through the wheel and the reference model and fails
// at the first divergence of their logs. It returns both for workload
// statistics.
func checkArmOps(t testing.TB, ops []byte) (*refSched, *wheelAPI) {
	t.Helper()
	ref, w := &refSched{}, &wheelAPI{Scheduler: NewScheduler()}
	got := driveArmOps(w, ops)
	want := driveArmOps(ref, ops)
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			lo := max(0, i-3)
			t.Fatalf("wheel diverges from the reference at log line %d:\nwheel: %s\nref:   %s",
				i, strings.Join(got[lo:min(i+1, len(got))], " | "), strings.Join(want[lo:min(i+1, len(want))], " | "))
		}
	}
	return ref, w
}

// numArmTimers is how many caller-owned timers the op driver re-arms.
const numArmTimers = 4

// schedAPI is what the op driver exercises: the wheel and refSched.
type schedAPI interface {
	Now() Time
	Post(at Time, fn func())
	PostIdx(at Time, fn func(int32), idx int32)
	arm(k int, at Time, fn func())
	stop(k int) bool
	active(k int) bool
	Run(until Time) int
	Step() bool
	Reset()
	Pending() int
}

// wheelAPI is a Scheduler with its caller-owned timers. maxHeap is the
// deepest current-tick heap a PostIdx was issued beside.
type wheelAPI struct {
	*Scheduler
	timers  [numArmTimers]Timer
	maxHeap int
}

func (w *wheelAPI) PostIdx(at Time, fn func(int32), idx int32) {
	w.maxHeap = max(w.maxHeap, len(w.cur))
	w.Scheduler.PostIdx(at, fn, idx)
}

func (w *wheelAPI) arm(k int, at Time, fn func()) { w.Arm(&w.timers[k], at, fn) }
func (w *wheelAPI) stop(k int) bool               { return w.timers[k].Stop() }
func (w *wheelAPI) active(k int) bool             { return w.timers[k].Active() }

// refSched is the reference model: every pending entry in one
// container/heap binary heap on (at, seq), with no ticks, buckets or
// slots. A timer arming is an entry tagged with its timer and generation;
// a later arming or a Stop drops it, a Reset drops everything. Dropped
// entries neither run nor count.
type refSched struct {
	now     Time
	seq     int
	entries refHeap
	gen     [numArmTimers]int
	armed   [numArmTimers]bool
	// workload statistics: armings that superseded a pending one, Stops
	// that cancelled one, and armings of a timer last armed before a Reset.
	superseded, stopped, carried int
	resetGen                     [numArmTimers]int
}

type refEntry struct {
	at    Time
	seq   int
	timer int // -1 for a Post
	gen   int
	fn    func()
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	e := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return e
}

func (r *refSched) Now() Time { return r.now }

func (r *refSched) add(e refEntry) {
	if e.at < r.now {
		panic("refSched: schedule in the past")
	}
	r.seq++
	e.seq = r.seq
	heap.Push(&r.entries, e)
}

func (r *refSched) Post(at Time, fn func()) { r.add(refEntry{at: at, timer: -1, fn: fn}) }

func (r *refSched) PostIdx(at Time, fn func(int32), idx int32) { r.Post(at, func() { fn(idx) }) }

func (r *refSched) arm(k int, at Time, fn func()) {
	if r.armed[k] {
		r.superseded++
	}
	if r.gen[k] > 0 && r.gen[k] == r.resetGen[k] {
		r.carried++
	}
	r.gen[k]++
	r.armed[k] = true
	r.add(refEntry{at: at, timer: k, gen: r.gen[k], fn: fn})
}

func (r *refSched) stop(k int) bool {
	was := r.armed[k]
	if was {
		r.stopped++
	}
	r.armed[k] = false
	return was
}

func (r *refSched) active(k int) bool { return r.armed[k] }

func (r *refSched) live(e *refEntry) bool {
	return e.timer < 0 || (r.armed[e.timer] && r.gen[e.timer] == e.gen)
}

// next drops dead entries off the top of the heap and reports whether a
// live one remains there.
func (r *refSched) next() bool {
	for len(r.entries) > 0 && !r.live(&r.entries[0]) {
		heap.Pop(&r.entries)
	}
	return len(r.entries) > 0
}

// fire runs the entry on top of the heap.
func (r *refSched) fire() {
	e := heap.Pop(&r.entries).(refEntry)
	if e.timer >= 0 {
		r.armed[e.timer] = false
	}
	r.now = e.at
	e.fn()
}

func (r *refSched) Step() bool {
	if !r.next() {
		return false
	}
	r.fire()
	return true
}

func (r *refSched) Run(until Time) int {
	n := 0
	for r.next() && r.entries[0].at <= until {
		r.fire()
		n++
	}
	if r.now < until {
		r.now = until
	}
	return n
}

func (r *refSched) Reset() {
	r.now, r.seq, r.entries = 0, 0, nil
	for k := range r.armed {
		r.armed[k] = false
		r.resetGen[k] = r.gen[k]
	}
}

func (r *refSched) Pending() int {
	n := 0
	for i := range r.entries {
		if r.live(&r.entries[i]) {
			n++
		}
	}
	return n
}

// stormCap bounds the retry-storm entries one op sequence may post — one
// storm deep enough for the fleet's shape and a small second one — so a
// fuzzed sequence of storms stays within the reference model's quadratic
// budget.
const stormCap = 2700

// driveArmOps interprets ops as byte pairs (op, argument): posts, timer
// armings at offsets from the same tick to eight hours out, Stops, Runs,
// Steps, Resets and retry storms. After each op it logs Now, Pending and
// every timer's Active; fired events log themselves, and every third one
// schedules another — a post, or a timer arming from inside a callback as
// a ticker re-arms itself. It returns the log.
//
// A retry storm is the fleet's collision-retry shape: (argument+1)·20
// PostIdx entries, up to stormCap in all, on the next tick's 10 s grid, so
// same-at ties abound. Four in seven of them re-post themselves 30–90 s
// out from inside their callback, twice; every fifth re-arms a timer,
// superseding its pending arming, and every eleventh stops one, so popped
// slots of dead armings are reused.
func driveArmOps(s schedAPI, ops []byte) []string {
	var log []string
	label := 0
	var schedule func(timer bool, k int, at Time, depth int)
	schedule = func(timer bool, k int, at Time, depth int) {
		label++
		id := label
		fn := func() {
			log = append(log, fmt.Sprintf("fire %d@%v", id, s.Now()))
			if depth < 2 && id%3 == 0 {
				schedule(id%2 == 0, (k+id)%numArmTimers, s.Now()+Time(id%5)*20*time.Minute, depth+1)
			}
		}
		if timer {
			s.arm(k, at, fn)
		} else {
			s.Post(at, fn)
		}
	}
	stormed := 0
	var retry func(idx int32)
	retry = func(idx int32) {
		id, gen := int(idx>>2), idx&3 // storm entry id, retry generation
		log = append(log, fmt.Sprintf("retry %d.%d@%v", id, gen, s.Now()))
		if gen < 2 && id%7 < 4 {
			s.PostIdx(s.Now()+Time(30+(id*13+int(gen)*7)%61)*time.Second, retry, idx+1)
		}
		switch k := id % numArmTimers; {
		case id%5 == 0:
			schedule(true, k, s.Now()+Time(id%90)*time.Second, 2)
		case id%11 == 0:
			log = append(log, fmt.Sprintf("stop %d: %v", k, s.stop(k)))
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%7, int(ops[i+1])
		offset := Time(arg%48) * 10 * time.Minute
		k := arg % numArmTimers
		switch op {
		case 0:
			schedule(false, 0, s.Now()+offset, 0)
		case 1, 2:
			schedule(true, k, s.Now()+offset, 0)
		case 3:
			log = append(log, fmt.Sprintf("stop %d: %v", k, s.stop(k)))
		case 4:
			log = append(log, fmt.Sprintf("run: %d", s.Run(s.Now()+offset)))
		case 5:
			if arg%4 == 0 {
				s.Reset()
				log = append(log, "reset")
			} else {
				log = append(log, fmt.Sprintf("step: %v", s.Step()))
			}
		case 6:
			n := min((arg+1)*20, stormCap-stormed)
			base := (s.Now()/time.Hour + 1) * time.Hour
			for j := 0; j < n; j++ {
				s.PostIdx(base+Time(j%360)*10*time.Second, retry, int32(stormed+j)<<2)
			}
			stormed += n
		}
		var act [numArmTimers]bool
		for k := range act {
			act[k] = s.active(k)
		}
		log = append(log, fmt.Sprintf("now %v pending %d active %v", s.Now(), s.Pending(), act))
	}
	log = append(log, fmt.Sprintf("drain: %d, now %v", s.Run(s.Now()+24*time.Hour), s.Now()))
	return log
}

// TestArmAllocatesNothing checks that re-arming a caller-owned timer — a
// superseding arming included — and steady-state PostIdx retries
// allocate nothing once the heap and the slot table are warm.
func TestArmAllocatesNothing(t *testing.T) {
	s := NewScheduler()
	var tm Timer
	fired := 0
	fn := func() { fired++ }
	s.ArmAfter(&tm, time.Second, fn)
	s.Step()
	if allocs := testing.AllocsPerRun(100, func() {
		s.ArmAfter(&tm, time.Second, fn)
		s.ArmAfter(&tm, 2*time.Second, fn) // supersedes the first
		s.Step()
	}); allocs != 0 {
		t.Errorf("Arm allocates %v per re-arming, want 0", allocs)
	}
	if fired != 102 || s.Pending() != 0 || s.QueueLen() != 0 {
		t.Errorf("fired %d, pending %d, queued %d; want 102, 0, 0", fired, s.Pending(), s.QueueLen())
	}

	// A pool of 300 retries, each re-posting itself 30–90 s out when it
	// fires: every pop frees the slot its re-post takes.
	var retry func(int32)
	retry = func(idx int32) { s.PostIdx(s.Now()+time.Duration(30+idx%61)*time.Second, retry, idx) }
	for i := int32(0); i < 300; i++ {
		s.PostIdx(s.Now()+time.Duration(i)*time.Second, retry, i)
	}
	for i := 0; i < 3000; i++ { // warm the slot table and the tick buckets
		s.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.Step() }); allocs != 0 {
		t.Errorf("a PostIdx retry allocates %v per pop and re-post, want 0", allocs)
	}
	if s.QueueLen() != 300 {
		t.Errorf("queued %d retries, want 300", s.QueueLen())
	}
}

// TestPostIdxOrderAndArgs checks that handle-free indexed events interleave
// correctly with Timer events and deliver their indices.
func TestPostIdxOrderAndArgs(t *testing.T) {
	s := NewScheduler()
	var got []int32
	record := func(i int32) { got = append(got, i) }
	s.PostIdx(2*time.Hour, record, 2)
	s.PostIdx(time.Hour, record, 1)
	stop := s.At(90*time.Minute, func() { t.Fatal("stopped timer fired") })
	s.PostIdx(3*time.Hour, record, 3)
	stop.Stop()
	if n := s.RunAll(); n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("indices fired as %v, want [1 2 3]", got)
	}
}

// TestResetReuse checks that a Reset scheduler behaves exactly like a
// fresh one: clock at zero, pending events discarded, ordering intact.
func TestResetReuse(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.Post(10*time.Hour, func() { fired++ })
	s.Post(time.Hour, func() { fired++ })
	s.Run(2 * time.Hour)
	if fired != 1 {
		t.Fatalf("fired %d before reset, want 1", fired)
	}
	s.Reset()
	if s.Now() != 0 || s.QueueLen() != 0 || s.Pending() != 0 {
		t.Fatalf("after Reset: now=%v queue=%d pending=%d, want zeros", s.Now(), s.QueueLen(), s.Pending())
	}
	// The discarded 10h event must not resurface; new events must fire in
	// order from a zero clock.
	var order []int
	s.Post(30*time.Minute, func() { order = append(order, 1) })
	s.Post(5*time.Hour, func() { order = append(order, 2) })
	s.Run(12 * time.Hour)
	if fired != 1 {
		t.Fatalf("pre-reset event leaked: fired=%d", fired)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("post-reset order %v, want [1 2]", order)
	}
	if s.Now() != 12*time.Hour {
		t.Fatalf("now=%v after Run, want 12h", s.Now())
	}
}

// TestScheduleBehindPromotedTick schedules an event for an earlier tick
// than the already-promoted one (legal between Runs as long as it is not
// in the past) and checks it still fires first.
func TestScheduleBehindPromotedTick(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.Post(5*time.Hour+time.Minute, func() { order = append(order, 2) })
	// Force promotion of the 5h bucket without firing it.
	if at, ok := s.peekAt(); !ok || at != 5*time.Hour+time.Minute {
		t.Fatalf("peek = %v %v", at, ok)
	}
	s.Post(time.Hour, func() { order = append(order, 1) })
	s.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order %v, want [1 2]", order)
	}
}
