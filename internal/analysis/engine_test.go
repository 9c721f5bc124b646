package analysis

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/failure"
	"repro/internal/trace"
)

// TestBSMergeIsLinear merges a table of 1<<17 distinct stations into an
// empty minimum-size one. Walking the source in slot order feeds the
// destination keys in hash order; into a table too small to hold them that
// is the linear-probing pathology, where every rehash leaves a dense
// prefix the next keys pile onto. The bound counts probes, not time.
func TestBSMergeIsLinear(t *testing.T) {
	const keys = 1 << 17
	src := newBSVisitor(0)
	for id := uint64(1); id <= keys; id++ {
		src.add(id, id%7+1, id%3 == 0)
	}
	src.add(0, 5, true)
	dst := newBSVisitor(0)
	if probes := dst.Merge(src); probes > 4*keys {
		t.Fatalf("merging %d stations took %d probes (> 4 per key)", keys, probes)
	}
	if dst.used != keys {
		t.Fatalf("merged table holds %d stations, want %d", dst.used, keys)
	}
	if got, want := dst.rank().figure11(1000), src.rank().figure11(1000); !reflect.DeepEqual(got, want) {
		t.Fatal("merged table ranks the stations differently from its source")
	}
}

// TestPassWorkerSplitEquivalence runs the pass at one to eight workers
// over layouts chosen to stress the split — all events in one segment, one
// event, more workers than events, uneven segments whose runs are cut
// inside segments, a device whose later events disagree with its first on
// every metadata field, every event of one kind in the last run (so every
// other run hands that kind's sort an empty part) — and requires the
// figures and claims bytes of the one-worker pass from each.
//
// ci/verify.sh's race stage runs it five times: the partials merge in run
// order whichever worker finishes first.
func TestPassWorkerSplitEquivalence(t *testing.T) {
	van, _ := setup(t)
	events := van.Dataset.Events()
	n := len(events)

	oneSegment := trace.NewDataset()
	oneSegment.Publish(slices.Clone(events))

	// Segment lengths cycle through primes, scaled by a factor from one to
	// sixteen, so the longest segments hold about sixteen times what the
	// shortest do and no run boundary of any worker count lines up with a
	// segment boundary by design.
	uneven := trace.NewDataset()
	primes := []int{1, 7, 131, 1009, 3, 401, 13}
	for off, i := 0, 0; off < n; i++ {
		l := min(primes[i%len(primes)]*(1+i%16), n-off)
		uneven.Publish(slices.Clone(events[off : off+l]))
		off += l
	}

	// Device d's first event, in Each order, sits in run 0 of every split;
	// copies of it with another device's model, Android version and ISP
	// sit in the later runs.
	relabeled := append([]failure.Event(nil), events...)
	first := relabeled[0]
	var other failure.Event
	for _, e := range events {
		if e.ModelID != first.ModelID && e.AndroidVersion != first.AndroidVersion && e.ISP != first.ISP {
			other = e
			break
		}
	}
	if other.ModelID == 0 {
		t.Fatal("no event differs from the first on model, Android and ISP")
	}
	for _, at := range []int{n/4 + 1, n/2 + 1, 3*n/4 + 1, n - 1} {
		e := first
		e.ModelID, e.AndroidVersion, e.FiveGCapable, e.ISP = other.ModelID, other.AndroidVersion, other.FiveGCapable, other.ISP
		relabeled[at] = e
	}

	// Voice_Failure is relabelled onto the last sixteenth of the events
	// (inside the last run of every split up to eight workers, and more
	// events than the radix sort's threshold), and only there.
	lastRunKind := slices.Clone(events)
	for i := range lastRunKind {
		switch {
		case i >= n-n/16:
			lastRunKind[i].Kind = failure.VoiceFailure
		case lastRunKind[i].Kind == failure.VoiceFailure:
			lastRunKind[i].Kind = failure.SMSSendFail
		}
	}

	layouts := []struct {
		name string
		ds   *trace.Dataset
	}{
		{"one-segment", oneSegment},
		{"one-event", trace.FromEvents(events[:1])},
		{"more-workers-than-events", trace.FromEvents(events[:3])},
		{"uneven-segments", uneven},
		{"first-event-metadata", trace.FromEvents(relabeled)},
		{"one-kind-in-last-run", trace.FromEvents(lastRunKind)},
		{"empty", trace.NewDataset()},
	}
	for _, l := range layouts {
		in := van
		in.Dataset = l.ds
		var wantFig, wantClaims []byte
		for w := 1; w <= 8; w++ {
			p := newPass(in, w)
			fig, err := p.FiguresJSON(catalogueCE)
			if err != nil {
				t.Fatal(err)
			}
			claims, err := p.ClaimsJSON()
			if err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				wantFig, wantClaims = fig, claims
			} else if !bytes.Equal(fig, wantFig) || !bytes.Equal(claims, wantClaims) {
				t.Errorf("%s: %d workers render different bytes than one", l.name, w)
			}
			if l.name == "first-event-metadata" {
				d := p.dev.state(first.DeviceID)
				if int(d.modelID) != int(first.ModelID) || int(d.android) != int(first.AndroidVersion) || d.isp != first.ISP {
					t.Errorf("%d workers: device %d has model %d android %d isp %d, want its first event's %d/%d/%d",
						w, first.DeviceID, d.modelID, d.android, d.isp, first.ModelID, first.AndroidVersion, first.ISP)
				}
			}
		}
	}
}
