package analysis

import (
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
	return runPass(in.Dataset, func() *timeSeriesVisitor { return newTimeSeriesVisitor(bucket) }).series()
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
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ { // insertion sort: series are short
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	m := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[m]
	}
	return (cp[m-1] + cp[m]) / 2
}
