package analysis

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/trace"
)

// visitor is one sweep's accumulator: T is the implementing type itself.
// The engine delivers every event of one run of the dataset to Visit, and
// then hands the later runs' partials to the first run's with one Merge
// call, partials in run order — so first-event-wins metadata combines
// exactly as a sequential Dataset.Each would have produced it. The order
// of a visitor's raw samples is NOT part of the contract: a sample is a
// multiset, gathered unsorted by Visit, and Merge sorts each sample's
// union across the runs once, on one core per run (len(parts)+1 of them;
// a one-run pass merges no parts and sorts its own samples on one). Merge
// leaves the receiver ready for every finisher and is the last step that
// writes, so a batch Pass is read-only from the moment NewPass returns.
type visitor[T any] interface {
	Visit(e *failure.Event)
	Merge(parts []T)
}

// passWorkers picks the worker count for a pass: capped by GOMAXPROCS and
// by the number of physical CPUs (an oversubscribed GOMAXPROCS only adds
// preemption churn and duplicate visitor state to a CPU-bound scan).
func passWorkers() int {
	return max(1, min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
}

// passHint estimates how many events a single worker's visitor set will
// see; constructors use it to pre-size the device and station tables (a
// sample needs no hint: it grows a chunk at a time).
func passHint(ds *trace.Dataset, workers int) int {
	if ds == nil {
		return 0
	}
	return ds.Len()/workers + 1
}

// runPass runs one pass over the dataset with up to workers workers.
// Dataset.Split cuts the events, in Each order, into one run per worker
// of near-equal length — however large the published segments — and a
// dataset smaller than the worker count gets fewer workers. Each worker
// visits its run into its own visitor from mk; the calling goroutine takes
// run 0 and then merges the other partials into it in run order, which
// makes the result bit-identical to a sequential scan for any worker
// count. The merge sorts the samples on as many cores as there were runs.
// A one-run pass starts no goroutine for the sweep. The merge is inside
// the timed region: sorting the samples is part of what a pass costs.
func runPass[T visitor[T]](ds *trace.Dataset, workers int, mk func() T) T {
	if ds == nil {
		return mk()
	}
	start := time.Now()
	runs := ds.Split(workers)

	visitRun := func(run [][]failure.Event) T {
		v := mk()
		for _, seg := range run {
			for i := range seg {
				v.Visit(&seg[i])
			}
		}
		return v
	}

	var visited int64
	for _, run := range runs {
		for _, seg := range run {
			visited += int64(len(seg))
		}
	}
	var first [][]failure.Event
	var parts []T
	if len(runs) > 0 {
		first, parts = runs[0], make([]T, len(runs)-1)
	}
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = visitRun(runs[w+1])
		}()
	}
	base := visitRun(first)
	wg.Wait()
	base.Merge(parts)

	elapsed := time.Since(start)
	mPasses.Inc()
	mPassSeconds.Observe(elapsed.Seconds())
	mEventsVisited.Add(visited)
	mPassWorkers.Set(float64(len(parts) + 1))
	if s := elapsed.Seconds(); s > 0 {
		mEventsPerSec.Set(float64(visited) / s)
	}
	return base
}
