// Package rng provides deterministic, stream-splittable random number
// generation and the samplers the fleet simulator draws from: exponential
// inter-arrival times, lognormal durations, and weighted categorical
// choices.
//
// Every stochastic component in the simulator takes an explicit *Source so
// experiments are reproducible from a single scenario seed, and so device
// shards sharded across goroutines never contend on a shared generator.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// Source is a deterministic random source with distribution helpers.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream from a label. Identical
// (parent seed, label) pairs always produce the same stream, so adding a
// consumer never perturbs the draws of existing consumers.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	h.Write([]byte(label))
	return New(int64(h.Sum64()) ^ s.r.Int63())
}

// SplitIndexed derives an independent child stream from a label and index,
// e.g. one stream per simulated device.
func SplitIndexed(seed int64, label string, index int) *Source {
	return New(IndexedSeed(seed, label, index))
}

// IndexedSeed is the seed SplitIndexed derives from (seed, label, index).
// Exposing it lets a caller Reseed an existing Source onto the same stream
// SplitIndexed would have created, without allocating a new generator.
func IndexedSeed(seed int64, label string, index int) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
		buf[8+i] = byte(index >> (8 * i))
	}
	h.Write(buf[:])
	return int64(h.Sum64())
}

// Reseed re-seeds the Source in place. The subsequent draw sequence is
// identical to New(seed)'s, so a worker lane can reuse one Source across
// many simulated devices instead of allocating a generator per device.
func (s *Source) Reseed(seed int64) { s.r.Seed(seed) }

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform value in [0,n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// Uniform returns a uniform value in [lo, hi).
//
// Here and below, a product inside float64(...) is rounded before it is
// added: the Go spec then forbids fusing the two into one FMA instruction
// (which arm64 would otherwise emit), so every GOARCH draws the same bits.
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*s.r.Float64())
}

// Exp returns an exponential variate with the given mean (not rate).
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.r.ExpFloat64() * mean
}

// Normal returns a normal variate with the given mean and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return float64(s.r.NormFloat64()*stddev) + mean
}

// LogNormal returns a lognormal variate where mu and sigma are the mean and
// standard deviation of the variate's natural logarithm. Cellular failure
// durations are heavy-tailed; the paper reports 70.8% of failures under 30 s
// with a maximum of 25.5 hours, which a lognormal reproduces well.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(float64(s.r.NormFloat64()*sigma) + mu)
}

// Categorical samples indices proportionally to fixed weights. It holds no
// randomness of its own, so one table can be shared across many sources.
type Categorical struct {
	cum []float64
}

// NewCategorical builds a sampler over weights (non-negative, not all zero).
func NewCategorical(weights []float64) *Categorical {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("rng: categorical weights sum to zero")
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Categorical{cum: cum}
}

// Draw returns an index with probability proportional to its weight.
func (c *Categorical) Draw(r *Source) int {
	u := r.Float64()
	return sort.SearchFloat64s(c.cum, u)
}

// Len returns the number of categories.
func (c *Categorical) Len() int { return len(c.cum) }

// BuildCum fills cum (reusing its storage) with the cumulative normalized
// distribution NewCategorical would build from weights. Draws via DrawCum
// are bit-identical to NewCategorical(weights).Draw, but the table lives
// in caller-owned scratch instead of a fresh allocation per build.
func BuildCum(cum, weights []float64) []float64 {
	cum = append(cum[:0], weights...)
	total := 0.0
	for i, w := range cum {
		if w < 0 {
			w = 0
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("rng: categorical weights sum to zero")
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

// DrawCum draws an index from a cumulative table built by BuildCum.
func DrawCum(r *Source, cum []float64) int {
	u := r.Float64()
	return sort.SearchFloat64s(cum, u)
}

// Perm returns a pseudorandom permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }
