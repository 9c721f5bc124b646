package analysis

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/telephony"
	"repro/internal/trace"
)

// benchEvents sizes the synthetic benchmark dataset at roughly one million
// events — the scale of the paper's nationwide trace per analysis window.
const benchEvents = 1 << 20

// benchInput builds a deterministic synthetic Input of n events. The field
// mix is chosen so every visitor has real work: three failure kinds, a
// spread of causes, devices, models, cells, RATs, and signal levels, with
// stall-recovery metadata on the Data_Stall slice.
func benchInput(n int) Input {
	r := rand.New(rand.NewSource(42))
	const nDevices = 20000
	const nCells = 2000

	type dev struct {
		model   int
		fiveG   bool
		android int
		isp     simnet.ISPID
	}
	devs := make([]dev, nDevices)
	var pop fleet.Population
	pop.Total = nDevices
	for i := range devs {
		d := dev{
			model:   1 + r.Intn(34),
			isp:     simnet.ISPID(r.Intn(simnet.NumISPs)),
			android: 9 + r.Intn(2),
		}
		d.fiveG = d.model%5 == 0 && d.android == 10
		devs[i] = d
		pop.ByModel[d.model]++
		pop.ByISP[d.isp]++
		switch {
		case d.fiveG:
			pop.FiveG++
		case d.android == 9:
			pop.Android9++
		default:
			pop.Android10No5G++
		}
	}

	causes := []telephony.FailCause{
		telephony.CauseSignalLost, 27, 33, 38, 50, 29,
	}
	events := make([]failure.Event, n)
	for i := range events {
		id := uint64(r.Intn(nDevices))
		d := devs[id]
		e := failure.Event{
			Kind:           failure.Kind(r.Intn(3)),
			DeviceID:       id,
			ModelID:        uint16(d.model),
			AndroidVersion: uint8(d.android),
			FiveGCapable:   d.fiveG,
			ISP:            d.isp,
			Cell: telephony.CellIdentity{
				MCC: 460, MNC: uint16(d.isp),
				LAC: uint32(r.Intn(nCells) / 64), CID: uint32(r.Intn(nCells)),
			},
			Region:   geo.Region(r.Intn(geo.NumRegions)),
			RAT:      telephony.AllRATs[r.Intn(len(telephony.AllRATs))],
			Level:    telephony.SignalLevel(r.Intn(telephony.NumSignalLevels)),
			Start:    time.Duration(r.Intn(120*24)) * time.Minute,
			Duration: time.Duration(1+r.Intn(300)) * time.Second,
		}
		if e.Kind == failure.DataSetupError {
			e.Cause = causes[r.Intn(len(causes))]
		}
		if e.Kind == failure.DataStall {
			e.OpsExecuted = uint8(r.Intn(4))
			switch e.OpsExecuted {
			case 1:
				e.ResolvedBy = android.ResolvedOp1
			case 2:
				e.ResolvedBy = android.ResolvedOp2
			case 3:
				e.ResolvedBy = android.ResolvedOp3
			default:
				e.AutoFixTime = time.Duration(1+r.Intn(600)) * time.Second
			}
		}
		events[i] = e
	}

	in := Input{Dataset: trace.FromEvents(events)}
	in.Population = pop
	for rat := 0; rat < 5; rat++ {
		for l := 0; l < telephony.NumSignalLevels; l++ {
			in.Dwell.Seconds[rat][l] = float64(3600 * (1 + rat + l) * 100)
			in.Dwell.DevicesExposed[rat][l] = int64(nDevices / (1 + l))
		}
	}
	return in
}

// benchCatalogue is a minimal Table-1 model list for the synthetic fleet.
func benchCatalogue() []ModelCatalogueEntry {
	out := make([]ModelCatalogueEntry, 0, 34)
	for id := 1; id <= 34; id++ {
		out = append(out, ModelCatalogueEntry{
			ID: id, FiveG: id%5 == 0, Android: 9 + id%2,
		})
	}
	return out
}

// sweep pulls every figure the report needs from src — the full extraction
// surface. Against a Pass all scanning already happened in the single
// fused pass.
func sweep(src source, catalogue []ModelCatalogueEntry) int {
	n := 0
	n += len(src.Table1(catalogue))
	n += len(src.Table2(10))
	n += src.Figure3().CDF.N()
	n += src.Figure4().CDF.N()
	f, n5 := src.By5G()
	n += f.Devices + n5.Devices
	a9, a10 := src.ByAndroidVersion()
	n += a9.Devices + a10.Devices
	for _, g := range src.ByISP() {
		n += g.Devices
	}
	n += src.Figure10().CDF.N()
	n += len(src.Figure11(100).Counts)
	n += len(src.Figure14())
	n += len(src.Figure15())
	n += len(src.Figure16(telephony.RAT4G))
	n += len(src.Figure16(telephony.RAT5G))
	n += len(src.kindDurations(failure.DataStall))
	n += len(src.fiveGKindStats())
	return n
}

// BenchmarkAnalysisSinglePass measures the fused engine: one pass feeds
// the same extraction surface.
func BenchmarkAnalysisSinglePass(b *testing.B) {
	in := benchInput(benchEvents)
	catalogue := benchCatalogue()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sweep(NewPass(in), catalogue) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkStreamingApply measures the live applier: the synthetic input
// handed to a fresh engine in 512-event chunks, the bulk-upload frame size,
// and timed until the applier is idle. Every figure visitor and the sliding
// window see each event once; the window's 60 hours hold the whole input.
func BenchmarkStreamingApply(b *testing.B) {
	in := benchInput(benchEvents)
	events := in.Dataset.Events()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewStreaming(in, StreamingOptions{})
		for rest := events; len(rest) > 0; {
			n := min(512, len(rest))
			eng.Ingest(rest[:n])
			rest = rest[n:]
		}
		if err := eng.WaitIdle(time.Minute); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		eng.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// BenchmarkLiveFiguresAtRest measures /api/live/figures polls of an
// engine at rest, after a first render has settled every sample. "render"
// installs the context afresh before each poll (Sync), so the kept document
// is stale and the poll renders: the state-lock hold a dashboard poll costs
// the applier whenever the engine has moved. "served" polls an unchanged
// engine, which hands back the kept bytes under the lock held shared. The
// input has the bench's fleet shape (seed 11, 10 000 devices over 72
// hours, every event twice: about 736 k events), reported in ms and bytes
// per poll.
func BenchmarkLiveFiguresAtRest(b *testing.B) {
	res, err := fleet.Run(fleet.Scenario{Seed: 11, NumDevices: 10_000, Window: 72 * time.Hour, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	in := FromResult(res)
	events := append(in.Dataset.Events(), in.Dataset.Events()...)
	catalogue := modelCatalogue()
	eng := liveOver(b, in, events, 512)
	defer eng.Close()
	if _, err := eng.FiguresJSON(catalogue); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		stale bool
	}{{"render", true}, {"served", false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.stale {
					eng.Sync(in)
				}
				if _, err := eng.FiguresJSON(catalogue); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/poll")
			b.ReportMetric(float64(len(events)), "events")
		})
	}
}
