package analysis

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/stats"
)

// FuzzWindowAccum drives the sliding-window accumulator with arbitrary
// arrival sequences — forward jumps, backward (late) arrivals, negative
// starts, bucket-boundary values — against an independent map-based model
// of the window semantics. Every snapshot must match the model exactly, and
// each duration quantile must lie within stats.DurationHistMaxRelErr of the
// exact order statistic of the durations the model's window holds. Three
// bytes encode one event: a step selector, a step size, and a duration.
func FuzzWindowAccum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{2, 1, 10, 2, 1, 20, 7, 200, 30, 0, 90, 40})
	f.Add([]byte{7, 255, 1, 0, 255, 2, 2, 0, 3, 2, 0, 4, 2, 0, 5})
	seq := make([]byte, 0, 3*64)
	for i := 0; i < 64; i++ {
		seq = append(seq, byte(i%5), byte(i*7), byte(i))
	}
	f.Add(seq)

	f.Fuzz(func(t *testing.T, data []byte) {
		const bucketDur = time.Minute
		n := 3
		if len(data) > 0 {
			n = 1 + int(data[0]%7)
		}
		w := newWindowAccum(n, bucketDur)

		// Independent model: per absolute bucket index, the same counters
		// the ring keeps, windowed at snapshot time by [floor, head].
		type modelBucket struct {
			events int64
			byKind [failure.NumKinds]int64
			durSum time.Duration
			durs   []time.Duration
		}
		model := map[int64]*modelBucket{}
		var head int64 = -1
		var late int64
		mFloor := func() int64 {
			if head < 0 {
				return 0
			}
			fl := head - int64(n) + 1
			if fl < 0 {
				fl = 0
			}
			return fl
		}

		check := func() {
			t.Helper()
			snap := w.snapshot()
			if snap.LateDrops != late {
				t.Fatalf("late: got %d want %d", snap.LateDrops, late)
			}
			var events int64
			var durSum time.Duration
			var durs []time.Duration
			var kinds [failure.NumKinds]int64
			if head >= 0 {
				fl := mFloor()
				if snap.FromSeconds != (time.Duration(fl) * bucketDur).Seconds() {
					t.Fatalf("from: got %v want bucket %d", snap.FromSeconds, fl)
				}
				if snap.ToSeconds != (time.Duration(head+1) * bucketDur).Seconds() {
					t.Fatalf("to: got %v want bucket %d", snap.ToSeconds, head+1)
				}
				for idx := fl; idx <= head; idx++ {
					b := model[idx]
					if b == nil {
						continue
					}
					events += b.events
					durSum += b.durSum
					for k, c := range b.byKind {
						kinds[k] += c
					}
					durs = append(durs, b.durs...)
				}
			}
			if snap.Events != events {
				t.Fatalf("events: got %d want %d", snap.Events, events)
			}
			if snap.Samples != len(durs) {
				t.Fatalf("samples: got %d want %d", snap.Samples, len(durs))
			}
			var kindSum int64
			for i, kc := range snap.ByKind {
				if kc.Count != kinds[i] {
					t.Fatalf("kind %s: got %d want %d", kc.Kind, kc.Count, kinds[i])
				}
				kindSum += kc.Count
			}
			if kindSum != snap.Events {
				t.Fatalf("by_kind sums to %d, events %d", kindSum, snap.Events)
			}
			if events > 0 {
				if want := durSum.Seconds() / float64(events); snap.DurMean != want {
					t.Fatalf("durMean: got %v want %v", snap.DurMean, want)
				}
				slices.Sort(durs)
				if want := durs[len(durs)-1].Seconds(); snap.DurMax != want {
					t.Fatalf("durMax: got %v want %v", snap.DurMax, want)
				}
				checkWindowQuantiles(t, snap, durs)
			}
		}

		var cur time.Duration
		for i := 0; i+2 < len(data); i += 3 {
			sel, size, durB := data[i], data[i+1], data[i+2]
			step := time.Duration(size) * bucketDur / 4
			switch sel % 5 {
			case 0: // backward, possibly below the floor or negative
				cur -= step * 4
			case 1: // exact bucket-boundary landing
				cur = (cur/bucketDur + time.Duration(size%8)) * bucketDur
			case 2: // small forward drift
				cur += step
			case 3: // stay put
			case 4: // far forward jump (evicts slots)
				cur += time.Duration(size) * bucketDur
			}
			e := failure.Event{
				Kind:     failure.Kind(int(durB) % int(failure.NumKinds)),
				Start:    cur,
				Duration: time.Duration(durB) * time.Second,
			}

			// Mirror Add against the model.
			idx := int64(0)
			if cur > 0 {
				idx = int64(cur / bucketDur)
			}
			if head >= 0 && idx < mFloor() {
				late++
			} else {
				if idx > head {
					head = idx
				}
				b := model[idx]
				if b == nil {
					b = &modelBucket{}
					model[idx] = b
				}
				b.events++
				b.byKind[e.Kind]++
				b.durSum += e.Duration
				b.durs = append(b.durs, e.Duration)
			}

			w.Add(&e)
			if i%15 == 0 {
				check() // interleaved queries must not perturb state
			}
		}
		check()
	})
}

// checkWindowQuantiles requires each of snap's duration quantiles to lie
// within stats.DurationHistMaxRelErr of the exact nearest-rank order
// statistic of sorted, the durations the window holds.
func checkWindowQuantiles(t *testing.T, snap WindowSnapshot, sorted []time.Duration) {
	t.Helper()
	n := float64(len(sorted))
	for _, c := range []struct {
		q   float64
		got float64
	}{{0.5, snap.DurP50}, {0.9, snap.DurP90}, {0.99, snap.DurP99}} {
		rank := min(max(int(math.Ceil(c.q*n)), 1), len(sorted))
		exact := sorted[rank-1].Seconds()
		if math.IsNaN(c.got) || math.Abs(c.got-exact) > exact*stats.DurationHistMaxRelErr*(1+1e-12) {
			t.Fatalf("p%v: got %vs, exact order statistic %vs, bound %v", c.q*100, c.got, exact, stats.DurationHistMaxRelErr)
		}
	}
}
