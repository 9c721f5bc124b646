package analysis

import (
	"runtime"
	"time"

	"repro/internal/failure"
	"repro/internal/stats"
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

// passRuns cuts the dataset, in Each order, into at most workers runs of
// near-equal length (see Dataset.Split) — however large the published
// segments — and estimates how many events one run's visitor set will see;
// constructors use the hint to pre-size the device and station tables (a
// sample needs no hint: it grows a chunk at a time). A nil dataset has no
// runs.
func passRuns(ds *trace.Dataset, workers int) (runs [][][]failure.Event, hint int) {
	if ds == nil {
		return nil, 0
	}
	return ds.Split(workers), ds.Len()/workers + 1
}

// runPass visits each run into its own visitor from mk, all at once, the
// first on the calling goroutine, and then merges the other partials into
// the first in run order, which makes the result bit-identical to a
// sequential scan of the runs concatenated for any cut. The merge sorts the
// samples on as many cores as there were runs. No runs is one empty run; a
// one-run pass starts no goroutine for the sweep. The merge is inside the
// timed region: sorting the samples is part of what a pass costs.
func runPass[T visitor[T]](runs [][][]failure.Event, mk func() T) T {
	start := time.Now()
	if len(runs) == 0 {
		runs = [][][]failure.Event{nil}
	}
	var visited int64
	for _, run := range runs {
		for _, seg := range run {
			visited += int64(len(seg))
		}
	}
	vs := make([]T, len(runs))
	stats.OnWorkers(len(runs), func(w int) {
		v := mk()
		for _, seg := range runs[w] {
			for i := range seg {
				v.Visit(&seg[i])
			}
		}
		vs[w] = v
	})
	return mergePass(start, vs, visited)
}

// mergePass is runPass's second half, and Simulate's: merge, then count.
func mergePass[T visitor[T]](start time.Time, vs []T, visited int64) T {
	base := vs[0]
	base.Merge(vs[1:])

	elapsed := time.Since(start)
	mPasses.Inc()
	mPassSeconds.Observe(elapsed.Seconds())
	mEventsVisited.Add(visited)
	mPassWorkers.Set(float64(len(vs)))
	if s := elapsed.Seconds(); s > 0 {
		mEventsPerSec.Set(float64(visited) / s)
	}
	return base
}
