package analysis

import (
	"time"

	"repro/internal/failure"
	"repro/internal/stats"
)

// TimeBucket is one interval of the failure time series.
type TimeBucket struct {
	Start  time.Duration
	Total  int
	ByKind map[failure.Kind]int
}

// TimeSeries buckets failures as they are visited, in any order — the view
// that exposes injected regional outages (correlated spikes) and verifies
// the generator is otherwise stationary across the eight months.
type TimeSeries struct {
	bucket  time.Duration
	buckets []TimeBucket
}

// NewTimeSeries starts an empty series of bucket-wide buckets (a week if
// bucket is not positive).
func NewTimeSeries(bucket time.Duration) *TimeSeries {
	if bucket <= 0 {
		bucket = 7 * 24 * time.Hour
	}
	return &TimeSeries{bucket: bucket}
}

// Visit counts one event into its bucket.
func (s *TimeSeries) Visit(e *failure.Event) {
	i := int(e.Start / s.bucket)
	if i < 0 {
		return
	}
	for len(s.buckets) <= i {
		s.buckets = append(s.buckets, TimeBucket{Start: time.Duration(len(s.buckets)) * s.bucket, ByKind: map[failure.Kind]int{}})
	}
	s.buckets[i].Total++
	s.buckets[i].ByKind[e.Kind]++
}

// Buckets returns the series, shared with s: at least one bucket.
func (s *TimeSeries) Buckets() []TimeBucket {
	if len(s.buckets) == 0 {
		return []TimeBucket{{ByKind: map[failure.Kind]int{}}}
	}
	return s.buckets
}

// SpikeIndex measures how bursty a series is: the maximum bucket divided
// by the median bucket (a stationary series sits near 1–2; an injected
// outage pushes it up).
func SpikeIndex(series []TimeBucket) float64 {
	counts := make([]float64, len(series))
	for i, b := range series {
		counts[i] = float64(b.Total)
	}
	cdf := stats.NewECDF(counts)
	if med := cdf.Quantile(0.5); med > 0 {
		return cdf.Max() / med
	}
	return 0
}
