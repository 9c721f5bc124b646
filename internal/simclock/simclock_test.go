package simclock

import (
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(3*time.Second, func() { got = append(got, 3) })
	s.At(1*time.Second, func() { got = append(got, 1) })
	s.At(2*time.Second, func() { got = append(got, 2) })
	if n := s.RunAll(); n != 3 {
		t.Fatalf("RunAll executed %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.RunAll()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestAfterAdvancesFromNow(t *testing.T) {
	s := NewScheduler()
	var fired Time
	s.At(5*time.Second, func() {
		s.After(2*time.Second, func() { fired = s.Now() })
	})
	s.RunAll()
	if fired != 7*time.Second {
		t.Errorf("nested After fired at %v, want 7s", fired)
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	ran := false
	timer := s.At(time.Second, func() { ran = true })
	if !timer.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !timer.Stop() {
		t.Fatal("Stop should report true on an active timer")
	}
	if timer.Stop() {
		t.Error("second Stop should report false")
	}
	s.RunAll()
	if ran {
		t.Error("stopped timer fired")
	}
	if timer.Active() {
		t.Error("stopped timer still active")
	}
}

func TestStopAfterFire(t *testing.T) {
	s := NewScheduler()
	timer := s.At(time.Second, func() {})
	s.RunAll()
	if timer.Stop() {
		t.Error("Stop after fire should report false")
	}
	if timer.Active() {
		t.Error("fired timer reported active")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Second, func() { count++ })
	}
	n := s.Run(5 * time.Second)
	if n != 5 || count != 5 {
		t.Fatalf("Run(5s) executed %d events (count %d), want 5", n, count)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want 5s", s.Now())
	}
	n = s.Run(20 * time.Second)
	if n != 5 || count != 10 {
		t.Fatalf("second Run executed %d (count %d), want 5 more", n, count)
	}
	// Queue drained before until: clock parks at until.
	if s.Now() != 20*time.Second {
		t.Errorf("Now() = %v, want 20s after drained Run", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10*time.Second, func() {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(time.Second, func() {})
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := NewScheduler()
	s.At(5*time.Second, func() {
		s.After(-time.Second, func() {})
	})
	s.RunAll() // must not panic
	if s.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want 5s", s.Now())
	}
}

func TestPending(t *testing.T) {
	s := NewScheduler()
	a := s.At(time.Second, func() {})
	s.At(2*time.Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	a.Stop()
	if s.Pending() != 1 {
		t.Fatalf("Pending after stop = %d, want 1", s.Pending())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := NewScheduler()
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestManyEventsDeterministic(t *testing.T) {
	run := func() []Time {
		s := NewScheduler()
		var fired []Time
		// Interleave scheduling from inside events.
		var spawn func(depth int)
		spawn = func(depth int) {
			fired = append(fired, s.Now())
			if depth < 3 {
				s.After(time.Duration(depth+1)*time.Millisecond, func() { spawn(depth + 1) })
				s.After(time.Duration(depth+2)*time.Millisecond, func() { spawn(depth + 1) })
			}
		}
		for i := 0; i < 50; i++ {
			d := time.Duration(i%7) * time.Millisecond
			s.At(d, func() { spawn(0) })
		}
		s.RunAll()
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic firing time at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
