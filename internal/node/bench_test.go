package node

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/internal/trace/ring"
)

// writeBootFleet writes a fleet run's events (seed 11, 8 000 devices over
// 72 hours: about 300 k) into three member stores under dir, as the
// collectors would have stored them: each device's events in 16-event
// frames at rising Seq, in the store of the member the ring gives it. It
// returns the number of events written.
func writeBootFleet(b *testing.B, dir string) int {
	b.Helper()
	res, err := fleet.Run(fleet.Scenario{Seed: 11, NumDevices: 8_000, Window: 72 * time.Hour, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	placement := ring.New(7, 0)
	stores := map[string]*trace.SegStore{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("col-%d", i)
		placement.Add(name)
		if stores[name], err = trace.OpenSegStore(filepath.Join(dir, name), trace.SegStoreOptions{}, nil); err != nil {
			b.Fatal(err)
		}
	}
	// Each order is device order, so a device's events are contiguous.
	events := res.Dataset.Events()
	seq := map[uint64]uint64{}
	for len(events) > 0 {
		dev, n := events[0].DeviceID, 1
		for n < min(16, len(events)) && events[n].DeviceID == dev {
			n++
		}
		seq[dev]++
		owner, _ := placement.Lookup(dev)
		if err := stores[owner].Append(&trace.Batch{DeviceID: dev, Seq: seq[dev], Events: events[:n]}); err != nil {
			b.Fatal(err)
		}
		events = events[n:]
	}
	for _, st := range stores {
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	return res.Dataset.Len()
}

// BenchmarkFleetBoot times a three-member node's boot through its settle:
// every member store replays into the dataset and the live engine, and
// the engine has applied every event when Start returns. Reported in
// replayed events per second.
func BenchmarkFleetBoot(b *testing.B) {
	dir := b.TempDir()
	events := writeBootFleet(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := Start(Options{Fleet: ring.FleetOptions{Dir: dir, Seed: 7}, Collectors: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := n.Dataset().Len(); got != events {
			b.Fatalf("boot replayed %d events, the stores hold %d", got, events)
		}
		if err := n.Shutdown(0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N*events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkFrameRoundTrip sends the ingest benchmark's two frame shapes
// through one node of one over loopback — 512-event slices of a fleet run
// in its device order (an uploader relaying a shard) and 16-event
// single-device frames (a phone's upload) — each from record and seal on
// an uploader through the collector's decode, store append and publish to
// the engine's apply, ack included. Four uploaders take the frames in
// turn; the node restarts, untimed, each time the run's frames are used
// up, so the dataset never outgrows one run. One op is one frame.
func BenchmarkFrameRoundTrip(b *testing.B) {
	res, err := fleet.Run(fleet.Scenario{Seed: 11, NumDevices: 800, Window: 72 * time.Hour, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	pool := res.Dataset.Events() // device order
	for _, shape := range []struct {
		name     string
		size     int
		byDevice bool
	}{{"bulk-512", 512, false}, {"phone-16", 16, true}} {
		b.Run(shape.name, func(b *testing.B) {
			var frames [][]failure.Event
			for lo := 0; lo < len(pool); {
				hi := min(lo+shape.size, len(pool))
				for k := lo + 1; shape.byDevice && k < hi; k++ {
					if pool[k].DeviceID != pool[lo].DeviceID {
						hi = k
					}
				}
				frames = append(frames, pool[lo:hi])
				lo = hi
			}
			var mallocs uint64
			var ms runtime.MemStats
			p := startFramePath(b, 4)
			b.ResetTimer()
			runtime.ReadMemStats(&ms)
			mallocs -= ms.Mallocs
			for i := 0; i < b.N; i++ {
				if i > 0 && i%len(frames) == 0 {
					if err := p.node.Engine().WaitIdle(SettleTimeout); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					runtime.ReadMemStats(&ms)
					mallocs += ms.Mallocs
					p.stop(b)
					p = startFramePath(b, 4)
					runtime.ReadMemStats(&ms)
					mallocs -= ms.Mallocs
					b.StartTimer()
				}
				p.send(b, i, frames[i%len(frames)])
			}
			if err := p.node.Engine().WaitIdle(SettleTimeout); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs
			p.stop(b)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
			b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/frame")
		})
	}
}
