package analysis

import (
	"slices"
	"time"

	"repro/internal/failure"
)

// TimeBucket is one interval of the failure time series.
type TimeBucket struct {
	Start  time.Duration
	Total  int
	ByKind map[failure.Kind]int
}

// TimeSeries buckets failures over the measurement window — the view that
// exposes injected regional outages (correlated spikes) and verifies the
// generator is otherwise stationary across the eight months.
func TimeSeries(in Input, bucket time.Duration) []TimeBucket {
	if bucket <= 0 {
		bucket = 7 * 24 * time.Hour
	}
	runs, _ := passRuns(in.Dataset, passWorkers())
	return runPass(runs, func() *timeSeriesVisitor { return newTimeSeriesVisitor(bucket) }).series()
}

// SpikeIndex measures how bursty a series is: the maximum bucket divided
// by the median bucket (a stationary series sits near 1–2; an injected
// outage pushes it up).
func SpikeIndex(series []TimeBucket) float64 {
	if len(series) == 0 {
		return 0
	}
	counts := make([]float64, 0, len(series))
	var maxV float64
	for _, b := range series {
		v := float64(b.Total)
		counts = append(counts, v)
		if v > maxV {
			maxV = v
		}
	}
	med := medianOf(counts)
	if med <= 0 {
		return 0
	}
	return maxV / med
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := slices.Clone(xs)
	slices.Sort(cp)
	m := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[m]
	}
	return (cp[m-1] + cp[m]) / 2
}
