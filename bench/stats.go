package main

import (
	"math"
	"sort"
)

// median returns the middle value of v (mean of the two middle values for
// an even count); 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// center is the robust centre of a few per-repetition values: the mean
// after dropping the lowest and the highest (the median for three values
// or fewer). Per-repetition throughput on the saturated mixes is bimodal —
// a repetition settles into one of two scheduling patterns ~25% apart — and
// the median of six such values flips between the modes from run to run,
// where the trimmed mean moves smoothly with their proportion; it still
// discards one cold or stalled repetition.
func center(v []float64) float64 {
	if len(v) < 4 {
		return median(v)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s[1 : len(s)-1] {
		sum += x
	}
	return sum / float64(len(s)-2)
}

// percentile is the nearest-rank percentile (0 < p <= 100) of an
// ascending-sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// percentileLadder is the set of tail percentiles a timing may report.
var percentileLadder = []float64{90, 99, 99.9, 99.99}

// topPercentile returns the highest ladder percentile that still has at
// least ten samples beyond it, or ok=false when even p90 does not.
func topPercentile(n int) (p float64, ok bool) {
	for _, c := range percentileLadder {
		if float64(n)*(100-c) >= 1000-1e-6 { // n*(1-c/100) >= 10, safe against 99.9's binary rounding
			p, ok = c, true
		}
	}
	return p, ok
}

// timing summarises one timed quantity the way the result file reports
// it: centre, median, sample count, and the highest percentile the sample
// supports.
type timing struct {
	Center float64   `json:"center"` // what the metric reports: center() of the samples
	Median float64   `json:"median"`
	N      int       `json:"n"`
	TopPct float64   `json:"top_pct,omitempty"`
	Top    float64   `json:"top,omitempty"`
	Values []float64 `json:"values,omitempty"` // the samples themselves, when there are few (per-repetition values)
}

func summarize(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{Center: center(s), Median: median(s), N: len(s)}
	if len(samples) <= 32 {
		t.Values = samples
	}
	if p, ok := topPercentile(len(s)); ok {
		t.TopPct, t.Top = p, percentile(s, p)
	}
	return t
}

// windowedP99 splits the samples into `windows` equal time windows over
// [0, span] by their completion offset `at`, takes each non-empty
// window's p99, and returns the median of those — a tail estimate that one
// stall in one window cannot move.
func windowedP99(at, lat []float64, span float64, windows int) float64 {
	if len(lat) == 0 || windows < 1 || span <= 0 {
		return 0
	}
	buckets := make([][]float64, windows)
	for i, t := range at {
		w := int(t / span * float64(windows))
		if w < 0 {
			w = 0
		}
		if w >= windows {
			w = windows - 1
		}
		buckets[w] = append(buckets[w], lat[i])
	}
	var p99s []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		p99s = append(p99s, percentile(b, 99))
	}
	return median(p99s)
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) does, so
// the spreads this program prints are the ones the acceptance check
// computes. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
