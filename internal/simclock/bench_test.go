package simclock

import (
	"testing"
	"time"
)

// stormDepth is the current-tick heap depth of BenchmarkSchedulerRetryStorm:
// in a census of 2 000 fleet devices (seed 11, 72 h) the heap held 310
// entries on average at each pop, 2 288 at most.
const stormDepth = 300

// BenchmarkSchedulerRetryStorm times one pop of a heap held at stormDepth
// entries, where each fired event schedules one more: 57 % of them (the
// census's share of collision retries among all scheduled events) re-post
// 30–90 s out, the rest are sub-five-second timers. ns/op is the cost of a
// pop and its re-post.
func BenchmarkSchedulerRetryStorm(b *testing.B) {
	s := NewScheduler()
	x := uint64(0x9e3779b97f4a7c15)
	var fire func(int32)
	fire = func(idx int32) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%100 < 57 {
			s.PostIdx(s.Now()+time.Duration(30+x%61)*time.Second, fire, idx)
		} else {
			s.PostIdx(s.Now()+time.Duration(x%5000)*time.Millisecond, fire, idx)
		}
	}
	for i := 0; i < stormDepth; i++ {
		s.PostIdx(time.Duration(i)*time.Second, fire, int32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
