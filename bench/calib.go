package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The reference sandbox is a small VM on a shared host, and the host's speed
// drifts: the same binary on the same seed reads 1.05–1.82 M events/s over an
// evening, every wall-clock metric moving with it, in swings that last from
// seconds to an hour. No estimator over one invocation's repetitions can
// see through that — they all sit in the same weather — so the benchmark
// measures the weather: a fixed kernel that is no part of the program under
// test (calibKernel) runs on every core for a few tens of milliseconds
// between the timed sections of every repetition, and every wall-clock
// metric is reported at reference speed, scaled by how fast the kernel ran
// beside it. Over 18 back-to-back invocations in which the raw numbers
// ranged over 32–51% the scaled ones ranged over 10–16%, and their quartile
// spread fell from 9–13% to 3–7% (README.md, "Noise").

// refSpeed is the kernel's rate, in passes per second per core, that counts
// as speed 1: about the median of the reference sandbox, so a scaled metric
// reads what that machine reads on a middling day.
const refSpeed = 750.0

// calibSample is how long one reading of the machine's speed lasts.
const calibSample = 40 * time.Millisecond

// calibState is one core's working set for the kernel.
type calibState struct {
	buf  []uint64
	m    map[uint64]uint64
	sink uint64
}

var calibStates []*calibState

// calibKernel is one pass of the reference kernel: a multiplicative hash
// walked over 1 MiB, 4096 updates of a small map, and a sort of 8192 words —
// arithmetic, cache and branch work in roughly the proportions of a codec,
// a dedup table and an index, and nothing the repository implements.
func calibKernel(st *calibState) {
	h := uint64(1469598103934665603)
	for i := range st.buf {
		h = (h ^ st.buf[i]) * 1099511628211
		st.buf[i] = h
	}
	for i := 0; i < 4096; i++ {
		st.m[st.buf[i]&8191] += h
	}
	s := st.buf[:8192]
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	st.sink += h + s[0]
}

// machineSpeed runs the kernel on every core at once for about d and
// returns the mean rate over the cores relative to refSpeed: 1 is the
// reference sandbox, below 1 a slower machine or a slower moment.
func machineSpeed(d time.Duration) float64 {
	n := runtime.NumCPU()
	for len(calibStates) < n {
		calibStates = append(calibStates, &calibState{buf: make([]uint64, 1<<17), m: make(map[uint64]uint64)})
	}
	rates := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t0 := time.Now()
			passes := 0
			for time.Since(t0) < d {
				calibKernel(calibStates[g])
				passes++
			}
			rates[g] = float64(passes) / time.Since(t0).Seconds()
		}(g)
	}
	wg.Wait()
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum / float64(n) / refSpeed
}

// speedometer collects the readings taken around one measurement.
type speedometer struct{ readings []float64 }

func (s *speedometer) read() { s.readings = append(s.readings, machineSpeed(calibSample)) }

// speed is the mean of the readings: the machine's speed while the
// measurement they surround was made.
func (s *speedometer) speed() float64 {
	sum := 0.0
	for _, r := range s.readings {
		sum += r
	}
	return sum / float64(len(s.readings))
}
