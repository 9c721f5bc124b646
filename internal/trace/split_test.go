package trace

import (
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
)

// checkSplit asserts Split's contract on one result: the runs are not
// empty and hold no empty sub-slice, their lengths differ by at most one,
// every sub-slice is capped at its length, and the runs concatenated are
// the given Each order, pointer for pointer — so they alias the segments
// and each run is one contiguous stretch of it.
func checkSplit(t *testing.T, runs [][][]failure.Event, each []*failure.Event, k int) {
	t.Helper()
	if want := min(max(k, 1), len(each)); len(runs) != want {
		t.Fatalf("Split(%d) of %d events: %d runs, want %d", k, len(each), len(runs), want)
	}
	at, lo, hi := 0, len(each), 0
	for r, run := range runs {
		n := 0
		for _, sub := range run {
			if len(sub) == 0 || cap(sub) != len(sub) {
				t.Fatalf("Split(%d): run %d has a sub-slice of len %d cap %d", k, r, len(sub), cap(sub))
			}
			for i := range sub {
				if at == len(each) || &sub[i] != each[at] {
					t.Fatalf("Split(%d): run %d strays from Each order at event %d", k, r, at)
				}
				at++
			}
			n += len(sub)
		}
		lo, hi = min(lo, n), max(hi, n)
	}
	if at != len(each) {
		t.Fatalf("Split(%d): runs hold %d of %d events", k, at, len(each))
	}
	if len(runs) > 0 && (lo == 0 || hi-lo > 1) {
		t.Fatalf("Split(%d): run lengths span [%d, %d]", k, lo, hi)
	}
}

func eachPointers(d *Dataset) []*failure.Event {
	var out []*failure.Event
	d.Each(func(e *failure.Event) { out = append(out, e) })
	return out
}

// TestDatasetSplit covers uneven segments, empty publishes between them, k
// from below one to past the event count, and the empty dataset.
func TestDatasetSplit(t *testing.T) {
	if runs := NewDataset().Split(4); len(runs) != 0 {
		t.Fatalf("empty dataset split into %d runs", len(runs))
	}
	d := NewDataset()
	events := sampleEvents(600)
	off := 0
	for _, l := range []int{1, 50, 0, 7, 200, 3, 90, 0, 1, 160, 88} {
		d.Publish(events[off : off+l : off+l])
		off += l
	}
	each := eachPointers(d)
	for _, k := range []int{-3, 0, 1, 2, 3, 4, 5, 7, 16, 17, 599, 600, 601, 5000} {
		checkSplit(t, d.Split(k), each, k)
	}
	one := FromEvents(events[:1])
	checkSplit(t, one.Split(4), eachPointers(one), 4)
}

// TestDatasetSplitBesideAppends splits while several producers publish
// uneven segments: the segment list is read from one snapshot, so every
// segment is wholly in the runs or wholly out, and the runs stay equal.
func TestDatasetSplitBesideAppends(t *testing.T) {
	d := NewDataset()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seg := 0; seg < 2000; seg++ {
				// A segment's events carry its identity and its length.
				l := 1 + (seg*7+p)%37
				evs := make([]failure.Event, l)
				for i := range evs {
					evs[i].DeviceID = uint64(p)<<32 | uint64(seg)
					evs[i].Start = time.Duration(l)
				}
				d.Publish(evs)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i, last := 0, false; !last; i++ {
		select {
		case <-done:
			last = true // one more split, of the finished dataset
		default:
		}
		before := d.Len()
		runs := d.Split(1 + i%5)
		seen := map[uint64]int{}
		total, lo, hi := 0, int(^uint(0)>>1), 0
		for _, run := range runs {
			n := 0
			for _, sub := range run {
				for j := range sub {
					seen[sub[j].DeviceID]++
				}
				n += len(sub)
			}
			total += n
			lo, hi = min(lo, n), max(hi, n)
		}
		if total < before {
			t.Fatalf("split %d: %d events, but %d were published before it began", i, total, before)
		}
		if len(runs) > 0 && (lo == 0 || hi-lo > 1) {
			t.Fatalf("split %d: run lengths span [%d, %d]", i, lo, hi)
		}
		for _, run := range runs {
			for _, sub := range run {
				if id := sub[0].DeviceID; seen[id] != int(sub[0].Start) {
					t.Fatalf("split %d: segment %x has %d of its %d events", i, id, seen[id], sub[0].Start)
				}
			}
		}
		if last && total != d.Len() {
			t.Fatalf("split of the finished dataset holds %d of %d events", total, d.Len())
		}
		if last {
			t.Logf("%d splits beside the producers", i)
		}
	}
}
