package analysis

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/trace"
)

// visitor is one sweep's accumulator: T is the implementing type itself.
// The engine delivers every event of a dataset shard to Visit and combines
// per-worker partials with Merge, always called on the pass-wide base with
// the partials in shard index order, so first-event-wins metadata combines
// exactly as a sequential Dataset.Each would have produced it. The order of
// a visitor's raw samples is NOT part of the contract: a sample is a
// multiset, and settle sorts, in place, what was added since the last call.
// It must run after the last Visit/Merge and before any finisher reads the
// visitor, and it is the only step between the two that writes; runPass
// settles the base, so a batch Pass is read-only from the moment NewPass
// returns.
type visitor[T any] interface {
	Visit(e *failure.Event)
	Merge(other T)
	settle()
}

// passWorkers picks the worker count for a pass: capped by GOMAXPROCS, by
// the number of physical CPUs (an oversubscribed GOMAXPROCS only adds
// preemption churn and duplicate visitor state to a CPU-bound scan), and
// by the shard count.
func passWorkers(ds *trace.Dataset) int {
	if ds == nil {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < w {
		w = n
	}
	if ns := ds.NumShards(); ns < w {
		w = ns
	}
	if w < 1 {
		w = 1
	}
	return w
}

// passHint estimates how many events a single worker's visitor set will
// see; constructors use it to pre-size sample slices.
func passHint(ds *trace.Dataset) int {
	if ds == nil {
		return 0
	}
	return ds.Len()/passWorkers(ds) + 1
}

// runPass runs one pass over the dataset. Shards are split into contiguous
// blocks, one block per worker; each worker feeds its block — in ascending
// shard order — to its own visitor from mk. Worker visitors are merged into
// the base in worker index order, which with contiguous blocks IS shard
// index order, so the result is bit-identical to a sequential scan for any
// worker count. A single-worker pass skips the partials entirely and visits
// straight into the base. The base is settled before it is returned, inside
// the timed region: sorting the samples is part of what a pass costs.
func runPass[T visitor[T]](ds *trace.Dataset, mk func() T) T {
	base := mk()
	if ds == nil {
		return base
	}
	start := time.Now()
	ns := ds.NumShards()
	workers := passWorkers(ds)

	visitBlock := func(v T, lo, hi int) int64 {
		var n int64
		for s := lo; s < hi; s++ {
			if ds.ShardLen(s) == 0 {
				continue
			}
			ds.EachShard(s, func(e *failure.Event) {
				v.Visit(e)
				n++
			})
		}
		return n
	}

	var visited int64
	if workers == 1 {
		visited = visitBlock(base, 0, ns)
	} else {
		per := (ns + workers - 1) / workers
		parts := make([]T, workers)
		counts := make([]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w*per < ns; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				parts[w] = mk()
				counts[w] = visitBlock(parts[w], w*per, min((w+1)*per, ns))
			}(w)
		}
		wg.Wait()
		for w := 0; w*per < ns; w++ {
			visited += counts[w]
			base.Merge(parts[w])
		}
	}
	base.settle()

	elapsed := time.Since(start)
	mPasses.Inc()
	mPassSeconds.Observe(elapsed.Seconds())
	mEventsVisited.Add(visited)
	mPassWorkers.Set(float64(workers))
	if s := elapsed.Seconds(); s > 0 {
		mEventsPerSec.Set(float64(visited) / s)
	}
	return base
}
