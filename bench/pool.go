package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// pool is the generated input of one invocation: one fleet simulation,
// cut into the frames the uploaders send. The program under test receives
// only these events. Event.DeviceID is left as simulated (the issue
// proposed rewriting it to the uploader identity): the batch pass and the
// live engine then see a realistic device population with each device's
// events repeated `passes` times, and Batch.(DeviceID, Seq) already
// identifies a frame for span correlation.
type pool struct {
	res     *fleet.Result
	ctx     analysis.Input // population/dwell/transition context for figures; Dataset is replaced per system
	events  []failure.Event
	batches [][]failure.Event // views into events
	simSec  float64           // wall time of fleet.Run
	mallocs uint64            // heap allocations during fleet.Run
}

// frame returns the k-th frame of a repetition sent by nUp uploader
// goroutines. Goroutine g = k % nUp owns pool frames g, g+nUp, … and cycles
// through its own, so however often a repetition wraps round the pool, a
// pool frame is only ever sent by one goroutine.
func (p *pool) frame(k, nUp int) []failure.Event {
	g := k % nUp
	own := (len(p.batches) - g + nUp - 1) / nUp
	return p.batches[g+((k/nUp)%own)*nUp]
}

// uploaders is the load generator's goroutine count: C = min(nproc, 4).
func uploaders() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func buildPool(m mix, sz size, seed int64) (*pool, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := fleet.Run(fleet.Scenario{Seed: seed, NumDevices: sz.devices, Window: 72 * time.Hour, Workers: uploaders()})
	if err != nil {
		return nil, fmt.Errorf("fleet.Run: %w", err)
	}
	simSec := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)

	p := &pool{res: res, ctx: analysis.FromResult(res), events: res.Dataset.Events(), simSec: simSec, mallocs: after.Mallocs - before.Mallocs}
	if len(p.events) == 0 {
		return nil, fmt.Errorf("fleet.Run produced no events for %d devices", sz.devices)
	}
	if m.byDevice {
		// A phone uploads its own failures: group by device (time order kept
		// within a device) and never let a frame straddle two devices.
		sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].DeviceID < p.events[j].DeviceID })
	}
	for lo := 0; lo < len(p.events); {
		hi := lo + m.batch
		if hi > len(p.events) {
			hi = len(p.events)
		}
		if m.byDevice {
			for k := lo + 1; k < hi; k++ {
				if p.events[k].DeviceID != p.events[lo].DeviceID {
					hi = k
					break
				}
			}
		}
		p.batches = append(p.batches, p.events[lo:hi:hi])
		lo = hi
	}
	if len(p.batches) < uploaders() {
		return nil, fmt.Errorf("%d devices give %d frames, fewer than the %d uploaders", sz.devices, len(p.batches), uploaders())
	}
	return p, nil
}

// sumDigests runs n digest jobs, at most one per core at a time, and adds
// up their parts. trace.EventDigest costs ~2.6 µs per event, so the
// canonical checks fan out instead of calling Dataset.MultisetDigest.
func sumDigests(n int, job func(i int, part *trace.Digest) error) (trace.Digest, error) {
	parts := make([]trace.Digest, n)
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			errs[i] = job(i, &parts[i])
			<-sem
		}(i)
	}
	wg.Wait()
	var out trace.Digest
	for _, d := range parts {
		out.Add(d)
	}
	return out, errors.Join(errs...)
}
