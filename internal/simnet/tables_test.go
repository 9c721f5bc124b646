package simnet

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/telephony"
)

// tiltedPowLevel is the per-call expression the level tables replace,
// kept verbatim as their oracle: it tilts the region's weights with
// math.Pow on every call. f stands in for the call's one r.Float64() draw.
func tiltedPowLevel(n *Network, f float64, bs *BaseStation, rat telephony.RAT) telephony.SignalLevel {
	weights := baseLevelWeights[bs.Region]
	cov := n.isps[bs.ISP].CoverageFactor
	switch rat {
	case telephony.RAT3G:
		cov *= 0.80 // 3G coverage much worse than 2G when 4G unavailable
	case telephony.RAT5G:
		cov *= 0.60 // mmWave/sub-6 far shorter range than LTE; weak 5G is common
	case telephony.RAT2G:
		cov *= 1.10
	}
	// Shift probability mass toward lower levels when coverage < 1 by
	// exponential tilting: w'_l = w_l * cov^l. float64(...) rounds the
	// product before it is summed, forbidding an FMA (arm64).
	var tilted [telephony.NumSignalLevels]float64
	total := 0.0
	for l := 0; l < telephony.NumSignalLevels; l++ {
		tilted[l] = float64(weights[l] * math.Pow(cov, float64(l)))
		total += tilted[l]
	}
	u := f * total
	acc := 0.0
	for l := 0; l < telephony.NumSignalLevels; l++ {
		acc += tilted[l]
		if u < acc {
			return telephony.SignalLevel(l)
		}
	}
	return telephony.Level5
}

// TestLevelTableMatchesTiltedPow checks every (region, ISP, RAT) level
// table against the oracle: 10⁵ seeded draws through SampleLevel each, and
// every draw that lands u exactly on a running-sum boundary or one ulp to
// either side of it.
func TestLevelTableMatchesTiltedPow(t *testing.T) {
	const draws = 100_000
	n := newNetwork(nil)
	boundaryHits := 0
	for region := geo.Region(0); region < geo.NumRegions; region++ {
		for isp := ISPID(0); isp < NumISPs; isp++ {
			bs := &BaseStation{ISP: isp, Region: region}
			for rat := telephony.RATUnknown; int(rat) < numRATs; rat++ {
				seed := int64(region)<<16 | int64(isp)<<8 | int64(rat)
				got, want := rng.New(seed), rng.New(seed)
				for i := 0; i < draws; i++ {
					if g, w := n.SampleLevel(got, bs, rat), tiltedPowLevel(n, want.Float64(), bs, rat); g != w {
						t.Fatalf("%v/%v/%v draw %d: table gives %v, tilted pow %v", region, isp, rat, i, g, w)
					}
				}
				cum := &levelTables[region][isp][rat]
				total := cum[telephony.NumSignalLevels-1]
				for l := 0; l < telephony.NumSignalLevels; l++ {
					f0 := cum[l] / total
					for _, f := range []float64{math.Nextafter(f0, 0), f0, math.Nextafter(f0, 1)} {
						if f >= 1 {
							continue
						}
						if f*total == cum[l] {
							boundaryHits++
						}
						if g, w := levelAt(cum, f), tiltedPowLevel(n, f, bs, rat); g != w {
							t.Fatalf("%v/%v/%v at f=%v (u %v, boundary %d at %v): table gives %v, tilted pow %v",
								region, isp, rat, f, f*total, l, cum[l], g, w)
						}
					}
				}
			}
		}
	}
	// One of the three draws lands exactly on nearly every boundary: require
	// at least as many exact hits as there are inner boundaries.
	if tables := geo.NumRegions * NumISPs * numRATs; boundaryHits < tables*(telephony.NumSignalLevels-1) {
		t.Errorf("only %d draws landed exactly on a boundary, want at least %d", boundaryHits, tables*(telephony.NumSignalLevels-1))
	}
}

// TestPickMatchesSortSearch checks the guided station search against
// sort.Search over the whole prefix table. The tables hold zero-weight
// stations (leading, inner and trailing, so equal running sums tie), sum to
// zero, or carry the deployment's Zipf weights, which crowd many light
// stations into few guide buckets; u is drawn at random, and set at zero,
// at the total, exactly at every running sum and at every bucket edge.
func TestPickMatchesSortSearch(t *testing.T) {
	tables := [][]float64{
		{1},
		{0},
		{0, 0, 0},
		{0, 0, 1},
		{0.5, 0, 0, 0.25, 0.25},
		{1, 1, 1, 1},
		{0.3, 0.2, 0, 0.5, 0, 0},
		{1e-300, 1, 1e-300, 0},
		{1e300, 1e300, 1},
	}
	r := rng.New(12)
	for k := 0; k < 50; k++ {
		w := make([]float64, 1+r.Intn(40))
		for i := range w {
			switch r.Intn(4) {
			case 0: // zero weight: ties its neighbour's running sum
			case 1:
				w[i] = 1 // equal weights
			default:
				w[i] = r.Float64()
			}
		}
		tables = append(tables, w)
	}
	for _, bs := range testNetwork(t, 5000).pools[ISPA] {
		var w []float64
		for _, s := range bs.stations {
			w = append(w, s.LoadWeight)
		}
		tables = append(tables, w)
	}
	for ti, w := range tables {
		var stations []*BaseStation
		for i, x := range w {
			stations = append(stations, &BaseStation{ISP: ISPA, Region: geo.Urban, LoadWeight: x, Identity: telephony.CellIdentity{CID: uint32(i)}})
		}
		pool := &newNetwork(stations).pools[ISPA][geo.Urban]
		prefix := pool.prefix
		oracle := func(u float64) int {
			i := sort.Search(len(prefix), func(i int) bool { return prefix[i] > u })
			if i >= len(prefix) {
				i = len(prefix) - 1
			}
			return i
		}
		total := prefix[len(prefix)-1]
		us := append([]float64{0, total, math.Nextafter(total, 0)}, prefix...)
		for b := 0; pool.scale > 0 && b <= len(prefix); b++ {
			edge := float64(b) / pool.scale
			us = append(us, math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1)))
		}
		for i := 0; i < 2000; i++ {
			us = append(us, r.Float64()*total)
		}
		for _, u := range us {
			if u < 0 || u > total {
				continue
			}
			if got, want := pool.index(u), oracle(u); got != want {
				t.Fatalf("table %d %v: u=%v picks %d, sort.Search %d", ti, w, u, got, want)
			}
		}
	}
}

// TestNewNetworkOutOfRange: a station whose ISP or region is out of
// range, or whose load weight is negative, NaN or infinite, stays in
// Stations but is never attached to; Attach for an out-of-range ISP fails,
// for an out-of-range region falls back.
func TestNewNetworkOutOfRange(t *testing.T) {
	station := func(isp ISPID, region geo.Region, w float64) *BaseStation {
		return &BaseStation{ISP: isp, Region: region, RATs: []telephony.RAT{telephony.RAT4G}, LoadWeight: w}
	}
	good := station(ISPA, geo.Rural, 1)
	n := newNetwork([]*BaseStation{
		station(ISPID(7), geo.Urban, 1),
		station(ISPA, geo.Region(9), 1),
		station(ISPA, geo.Urban, -1),
		station(ISPA, geo.Urban, math.NaN()),
		station(ISPA, geo.Urban, math.Inf(1)),
		good,
	})
	if len(n.Stations) != 6 {
		t.Fatalf("Stations has %d entries, want 6", len(n.Stations))
	}
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		for _, region := range []geo.Region{geo.Urban, geo.Rural, geo.Region(9)} {
			att, err := n.AttachAt(r, ISPA, region, telephony.RAT4G, 0, nil)
			if err != nil || att.BS != good {
				t.Fatalf("Attach(ISP-A, %v) = %+v, %v; want the one in-range station", region, att, err)
			}
		}
	}
	if _, err := n.AttachAt(r, ISPID(7), geo.Urban, telephony.RAT4G, 0, nil); err == nil {
		t.Error("Attach for an out-of-range ISP succeeded")
	}
}

// levelSink keeps BenchmarkSampleLevel's draws alive.
var levelSink telephony.SignalLevel

// BenchmarkSampleLevel times one level draw on a table chosen per call.
func BenchmarkSampleLevel(b *testing.B) {
	n := testNetwork(b, 5000)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs := n.Stations[i%len(n.Stations)]
		levelSink = n.SampleLevel(r, bs, telephony.AllRATs[i%len(telephony.AllRATs)])
	}
}

// BenchmarkAttach times one Attach — station pick, RAT fallback and level
// draw — on the deployment of a 10 000-device fleet, cycling through ISPs,
// regions and requested RATs.
func BenchmarkAttach(b *testing.B) {
	n := testNetwork(b, 5000)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		isp := ISPID(i % NumISPs)
		region := geo.Region(i % geo.NumRegions)
		if _, err := n.AttachAt(r, isp, region, telephony.AllRATs[i%len(telephony.AllRATs)], 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
