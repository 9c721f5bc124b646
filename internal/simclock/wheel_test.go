package simclock

import (
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
		ref := checkArmOps(t, ops)
		total.superseded += ref.superseded
		total.stopped += ref.stopped
		total.carried += ref.carried
	}
	if total.superseded == 0 || total.stopped == 0 || total.carried == 0 {
		t.Fatalf("workload never superseded (%d), stopped (%d) or re-armed across a Reset (%d) a timer",
			total.superseded, total.stopped, total.carried)
	}
}

// FuzzSchedulerArm drives arbitrary op sequences through the wheel and the
// reference model and requires the same firing order, Run counts, Now,
// Pending and timer activity.
func FuzzSchedulerArm(f *testing.F) {
	f.Add([]byte{1, 5, 1, 5, 4, 47, 3, 1, 2, 200, 5, 4, 1, 5, 4, 47})
	f.Add([]byte{2, 7, 2, 31, 5, 8, 2, 7, 3, 7, 4, 20, 5, 0, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		checkArmOps(t, ops)
	})
}

// checkArmOps runs ops through the wheel and the reference model and fails
// at the first divergence of their logs. It returns the reference model
// for workload statistics.
func checkArmOps(t testing.TB, ops []byte) *refSched {
	t.Helper()
	ref := &refSched{}
	got := driveArmOps(&wheelAPI{Scheduler: NewScheduler()}, ops)
	want := driveArmOps(ref, ops)
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			lo := max(0, i-3)
			t.Fatalf("wheel diverges from the reference at log line %d:\nwheel: %s\nref:   %s",
				i, strings.Join(got[lo:min(i+1, len(got))], " | "), strings.Join(want[lo:min(i+1, len(want))], " | "))
		}
	}
	return ref
}

// numArmTimers is how many caller-owned timers the op driver re-arms.
const numArmTimers = 4

// schedAPI is what the op driver exercises: the wheel and refSched.
type schedAPI interface {
	Now() Time
	Post(at Time, fn func())
	arm(k int, at Time, fn func())
	stop(k int) bool
	active(k int) bool
	Run(until Time) int
	Step() bool
	Reset()
	Pending() int
}

// wheelAPI is a Scheduler with its caller-owned timers.
type wheelAPI struct {
	*Scheduler
	timers [numArmTimers]Timer
}

func (w *wheelAPI) arm(k int, at Time, fn func()) { w.Arm(&w.timers[k], at, fn) }
func (w *wheelAPI) stop(k int) bool               { return w.timers[k].Stop() }
func (w *wheelAPI) active(k int) bool             { return w.timers[k].Active() }

// refSched is the reference model: a flat list of pending entries searched
// for the least (at, seq) at every step. A timer arming is an entry tagged
// with its timer and generation; a later arming or a Stop drops it, a
// Reset drops everything. Dropped entries neither run nor count.
type refSched struct {
	now     Time
	seq     int
	entries []refEntry
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

func (r *refSched) Now() Time { return r.now }

func (r *refSched) add(e refEntry) {
	if e.at < r.now {
		panic("refSched: schedule in the past")
	}
	r.seq++
	e.seq = r.seq
	r.entries = append(r.entries, e)
}

func (r *refSched) Post(at Time, fn func()) { r.add(refEntry{at: at, timer: -1, fn: fn}) }

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

// next drops dead entries and returns the index of the earliest live one,
// or -1.
func (r *refSched) next() int {
	live := r.entries[:0]
	for _, e := range r.entries {
		if r.live(&e) {
			live = append(live, e)
		}
	}
	r.entries = live
	best := -1
	for i, e := range r.entries {
		if best < 0 || e.at < r.entries[best].at || (e.at == r.entries[best].at && e.seq < r.entries[best].seq) {
			best = i
		}
	}
	return best
}

func (r *refSched) fire(i int) {
	e := r.entries[i]
	r.entries = append(r.entries[:i], r.entries[i+1:]...)
	if e.timer >= 0 {
		r.armed[e.timer] = false
	}
	r.now = e.at
	e.fn()
}

func (r *refSched) Step() bool {
	i := r.next()
	if i < 0 {
		return false
	}
	r.fire(i)
	return true
}

func (r *refSched) Run(until Time) int {
	n := 0
	for {
		i := r.next()
		if i < 0 || r.entries[i].at > until {
			break
		}
		r.fire(i)
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

// driveArmOps interprets ops as byte pairs (op, argument): posts, timer
// armings at offsets from the same tick to eight hours out, Stops, Runs,
// Steps and Resets. After each op it logs Now, Pending and every timer's
// Active; fired events log themselves, and every third one schedules
// another — a post, or a timer arming from inside a callback as a ticker
// re-arms itself. It returns the log.
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
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%6, int(ops[i+1])
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
// superseding arming included — allocates nothing once the heap is warm.
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
