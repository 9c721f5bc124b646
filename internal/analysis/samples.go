package analysis

import (
	"slices"

	"repro/internal/stats"
)

// Chunk sizes, in floats. A sample's tail grows a chunk at a time, each a
// quarter of the tail so far within these bounds, so nothing added is ever
// copied to make room, and the unused end of the last chunk is at most a
// quarter of the tail (or one minChunk).
const (
	minChunk = 1 << 8
	maxChunk = 1 << 16
)

// samples is one distribution's raw sample, sorted at most once per
// element. xs is ascending; chunks and cur hold what arrived since the
// last sort, in arrival order. Sample order is not part of the visitor
// contract — every finisher reads a sample as a multiset — so the tail's
// order is forgotten as soon as it is sorted.
type samples struct {
	xs     []float64   // ascending: everything up to the last sort
	chunks [][]float64 // full chunks added since
	cur    []float64   // the chunk being filled
	tail   int         // elements in chunks
}

func (s *samples) add(x float64) {
	if len(s.cur) == cap(s.cur) {
		s.grow()
	}
	s.cur = append(s.cur, x)
}

// grow retires the full current chunk and starts the next.
func (s *samples) grow() {
	if len(s.cur) > 0 {
		s.chunks = append(s.chunks, s.cur)
		s.tail += len(s.cur)
	}
	s.cur = make([]float64, 0, min(maxChunk, max(minChunk, s.tail/4)))
}

// len is the number of elements in the sample, sorted or not.
func (s *samples) len() int { return len(s.xs) + s.tail + len(s.cur) }

// parts appends every non-empty piece of the sample to dst: the sorted
// prefix, then the tail's chunks in arrival order.
func (s *samples) parts(dst [][]float64) [][]float64 {
	if len(s.xs) > 0 {
		dst = append(dst, s.xs)
	}
	dst = append(dst, s.chunks...)
	if len(s.cur) > 0 {
		dst = append(dst, s.cur)
	}
	return dst
}

// unionOf replaces s with the ascending union of s and others, unsorted or
// not (others are only read): one stats.SortUnion over every piece, on
// workers cores, into one exact-size slice. This is how a batch pass sorts
// its samples: each is sorted once, after the sweep, on every worker.
func (s *samples) unionOf(others []*samples, workers int) {
	parts := s.parts(nil)
	for _, o := range others {
		parts = o.parts(parts)
	}
	*s = samples{xs: stats.SortUnion(parts, workers)}
}

// settle makes the whole sample ascending: sort the tail into one new
// slice, then merge it into the prefix from the back. The cost is that of
// the elements added since the previous settle plus the part of the prefix
// they displace; with an empty tail it is free. This is how the live
// engine sorts: a little at a time, before each render.
func (s *samples) settle() {
	if s.tail+len(s.cur) == 0 {
		return
	}
	tail := stats.SortUnion(append(s.chunks, s.cur), 1)
	s.chunks, s.cur, s.tail = nil, nil, 0
	if len(s.xs) == 0 {
		s.xs = tail
		return
	}
	i, k := len(s.xs)-1, len(s.xs)+len(tail)-1
	s.xs = slices.Grow(s.xs, len(tail))[:k+1]
	for j := len(tail) - 1; j >= 0; k-- {
		if i >= 0 && s.xs[i] > tail[j] {
			s.xs[k] = s.xs[i]
			i--
		} else {
			s.xs[k] = tail[j]
			j--
		}
	}
}

// ascending returns the sorted sample: shared with the visitor, for
// reading only. Every path to a finisher sorts first (the visitors' Merge
// for a batch pass, Streaming.pass for a live render), so an unsorted tail
// here is a bug, and rendering without it would be silently wrong.
func (s *samples) ascending() []float64 {
	if s.tail+len(s.cur) != 0 {
		panic("analysis: sample read before settle")
	}
	return s.xs
}
