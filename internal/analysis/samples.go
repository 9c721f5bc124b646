package analysis

import "repro/internal/stats"

// samples is one distribution's raw sample, sorted at most once per
// element. xs[:sorted] is ascending; xs[sorted:] is what arrived since the
// last settle, in arrival order. Sample order is not part of the visitor
// contract — every finisher reads a sample as a multiset — so settle sorts
// in place.
type samples struct {
	xs     []float64
	sorted int
}

func (s *samples) add(x float64) { s.xs = append(s.xs, x) }

// appendFrom adds every element of o (which it only reads) to the tail.
func (s *samples) appendFrom(o *samples) { s.xs = append(s.xs, o.xs...) }

// settle makes the whole sample ascending: radix-sort the tail, then merge
// it into the prefix from the back, through a scratch copy of the tail
// only. The cost is that of the elements added since the previous settle
// plus the part of the prefix they displace; with an empty tail it is free.
func (s *samples) settle() {
	if s.sorted == len(s.xs) {
		return
	}
	tail := s.xs[s.sorted:]
	stats.SortFloats(tail)
	if s.sorted > 0 {
		tmp := append([]float64(nil), tail...)
		i, k := s.sorted-1, len(s.xs)-1
		for j := len(tmp) - 1; j >= 0; k-- {
			if i >= 0 && s.xs[i] > tmp[j] {
				s.xs[k] = s.xs[i]
				i--
			} else {
				s.xs[k] = tmp[j]
				j--
			}
		}
	}
	s.sorted = len(s.xs)
}

// ascending returns the settled sample: shared with the visitor, for
// reading only. Every path to a finisher settles first (runPass for a batch
// pass, Streaming.pass for a live render), so an unsettled sample here is a
// bug, and rendering it would be silently wrong.
func (s *samples) ascending() []float64 {
	if s.sorted != len(s.xs) {
		panic("analysis: sample read before settle")
	}
	return s.xs
}
