package simnet

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/telephony"
)

func testNetwork(t testing.TB, numBS int) *Network {
	t.Helper()
	n, err := Generate(DefaultDeployment(numBS), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestISPParameters(t *testing.T) {
	isps := ISPs()
	var bsShare, userShare float64
	for i, isp := range isps {
		if isp.ID != ISPID(i) {
			t.Errorf("ISP at index %d has ID %v", i, isp.ID)
		}
		bsShare += isp.BSShare
		userShare += isp.UserShare
	}
	if math.Abs(bsShare-1) > 1e-9 {
		t.Errorf("BS shares sum to %v", bsShare)
	}
	if math.Abs(userShare-1) > 1e-9 {
		t.Errorf("user shares sum to %v", userShare)
	}
	// Paper: ISP-B's BSes use a higher radio frequency than C's than A's.
	if !(isps[ISPB].MedianFreqMHz > isps[ISPC].MedianFreqMHz && isps[ISPC].MedianFreqMHz > isps[ISPA].MedianFreqMHz) {
		t.Error("median frequency ordering should be B > C > A")
	}
	// Hazard ordering drives Figure 12 (prevalence B > A > C).
	if !(isps[ISPB].HazardFactor > isps[ISPA].HazardFactor && isps[ISPA].HazardFactor > isps[ISPC].HazardFactor) {
		t.Error("hazard ordering should be B > A > C")
	}
	if ISPA.String() != "ISP-A" || ISPID(9).String() != "ISP-?" {
		t.Error("bad ISP strings")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(DeploymentConfig{NumBS: 0}, rng.New(1)); err == nil {
		t.Error("NumBS=0 should error")
	}
	n, err := Generate(DeploymentConfig{NumBS: 10, ZipfSkew: -1}, rng.New(1))
	if err != nil || len(n.Stations) != 10 {
		t.Errorf("negative skew should default, got err=%v n=%d", err, len(n.Stations))
	}
}

func TestDeploymentShares(t *testing.T) {
	n := testNetwork(t, 30000)
	ispCount := map[ISPID]int{}
	regionCount := map[geo.Region]int{}
	ratCount := map[telephony.RAT]int{}
	for _, bs := range n.Stations {
		ispCount[bs.ISP]++
		regionCount[bs.Region]++
		for _, rat := range bs.RATs {
			ratCount[rat]++
		}
		if len(bs.RATs) == 0 {
			t.Fatal("BS with no RATs")
		}
	}
	total := float64(len(n.Stations))
	for id, isp := range ISPs() {
		got := float64(ispCount[ISPID(id)]) / total
		if math.Abs(got-isp.BSShare) > 0.02 {
			t.Errorf("%v BS share = %.3f, want ~%.3f", isp.ID, got, isp.BSShare)
		}
	}
	for _, p := range geo.Profiles() {
		got := float64(regionCount[p.Region]) / total
		if math.Abs(got-p.BSShare) > 0.02 {
			t.Errorf("%v region share = %.3f, want ~%.3f", p.Region, got, p.BSShare)
		}
	}
	// Marginal RAT shares: 4G dominant, 3G smallest of the legacy RATs.
	if ratCount[telephony.RAT4G] < ratCount[telephony.RAT2G] || ratCount[telephony.RAT2G] < ratCount[telephony.RAT3G] {
		t.Errorf("RAT share ordering wrong: %v", ratCount)
	}
	got4g := float64(ratCount[telephony.RAT4G]) / total
	if math.Abs(got4g-RATShares[telephony.RAT4G]) > 0.03 {
		t.Errorf("4G share = %.3f, want ~%.3f", got4g, RATShares[telephony.RAT4G])
	}
}

func TestCellIdentitiesUnique(t *testing.T) {
	n := testNetwork(t, 5000)
	seen := map[uint64]bool{}
	for _, bs := range n.Stations {
		id := bs.Identity.GlobalID()
		if seen[id] {
			t.Fatalf("duplicate cell identity %v", bs.Identity)
		}
		seen[id] = true
	}
}

func TestLoadWeightsZipf(t *testing.T) {
	n := testNetwork(t, 2000)
	ws := make([]float64, 0, len(n.Stations))
	for _, bs := range n.Stations {
		ws = append(ws, bs.LoadWeight)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
	// The sorted weights should follow rank^-0.82; fit and check.
	counts := make([]uint64, len(ws))
	for i, w := range ws {
		counts[i] = uint64(w * 1e9)
	}
	fit, err := stats.FitZipf(counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.A-0.82) > 0.02 {
		t.Errorf("load-weight Zipf exponent = %.3f, want ~0.82", fit.A)
	}
}

func TestAttachRespectsISPAndRAT(t *testing.T) {
	n := testNetwork(t, 5000)
	r := rng.New(2)
	for i := 0; i < 2000; i++ {
		att, err := n.AttachAt(r, ISPB, geo.Urban, telephony.RAT4G, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if att.BS.ISP != ISPB {
			t.Fatalf("attached to %v, want ISPB", att.BS.ISP)
		}
		if att.RAT == telephony.RATUnknown {
			t.Fatal("attachment has unknown RAT")
		}
		if !att.BS.Supports(att.RAT) {
			t.Fatalf("BS does not support camped RAT %v", att.RAT)
		}
		if !att.Level.Valid() {
			t.Fatalf("invalid signal level %d", att.Level)
		}
	}
}

func TestAttachFallsBackWhenRegionEmpty(t *testing.T) {
	// Tiny deployment: some (ISP, region) cells will be empty.
	n := testNetwork(t, 6)
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		for isp := ISPID(0); isp < NumISPs; isp++ {
			att, err := n.AttachAt(r, isp, geo.TransportHub, telephony.RAT4G, 0, nil)
			if err != nil {
				// Acceptable only if the ISP has no stations at all.
				has := false
				for _, bs := range n.Stations {
					if bs.ISP == isp {
						has = true
					}
				}
				if has {
					t.Fatalf("Attach failed despite stations existing: %v", err)
				}
				continue
			}
			if att.BS == nil {
				t.Fatal("nil BS on successful attach")
			}
		}
	}
}

func TestAttachLoadSkew(t *testing.T) {
	n := testNetwork(t, 2000)
	r := rng.New(4)
	counts := map[uint64]int{}
	for i := 0; i < 50000; i++ {
		att, err := n.AttachAt(r, ISPA, geo.Urban, telephony.RAT4G, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[att.BS.Identity.GlobalID()]++
	}
	var cs []int
	for _, c := range counts {
		cs = append(cs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(cs)))
	// Top station should absorb far more attachments than the median.
	if cs[0] < 5*cs[len(cs)/2] {
		t.Errorf("attachment counts insufficiently skewed: top=%d median=%d", cs[0], cs[len(cs)/2])
	}
}

func TestSampleLevelCoverageOrdering(t *testing.T) {
	n := testNetwork(t, 3000)
	meanLevel := func(isp ISPID) float64 {
		r := rng.New(5)
		sum, cnt := 0.0, 0
		for _, bs := range n.Stations {
			if bs.ISP != isp || bs.Region != geo.Suburban {
				continue
			}
			for i := 0; i < 50; i++ {
				sum += float64(n.SampleLevel(r, bs, telephony.RAT4G))
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	if a, b := meanLevel(ISPA), meanLevel(ISPB); a <= b {
		t.Errorf("ISP-A mean level %.2f should exceed ISP-B %.2f (inferior coverage)", a, b)
	}
}

func TestSampleLevelHubMostlyExcellent(t *testing.T) {
	n := testNetwork(t, 5000)
	r := rng.New(6)
	lvl5, total := 0, 0
	for _, bs := range n.Stations {
		if bs.Region != geo.TransportHub {
			continue
		}
		for i := 0; i < 30; i++ {
			if n.SampleLevel(r, bs, telephony.RAT4G) == telephony.Level5 {
				lvl5++
			}
			total++
		}
	}
	if total == 0 {
		t.Skip("no hub BSes generated")
	}
	if frac := float64(lvl5) / float64(total); frac < 0.4 {
		t.Errorf("hub level-5 fraction = %.2f, want >= 0.4", frac)
	}
}

func TestSampleLevel3GWorseThan2G(t *testing.T) {
	n := testNetwork(t, 3000)
	mean := func(rat telephony.RAT) float64 {
		r := rng.New(7)
		sum, cnt := 0.0, 0
		for _, bs := range n.Stations {
			if bs.Region != geo.Rural {
				continue
			}
			for i := 0; i < 30; i++ {
				sum += float64(n.SampleLevel(r, bs, rat))
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	if g2, g3 := mean(telephony.RAT2G), mean(telephony.RAT3G); g3 >= g2 {
		t.Errorf("3G mean level %.2f should be below 2G %.2f", g3, g2)
	}
}

func TestHazardOrderings(t *testing.T) {
	n := testNetwork(t, 1000)
	var normalBS, hubBS *BaseStation
	for _, bs := range n.Stations {
		if bs.Region == geo.Urban && normalBS == nil {
			normalBS = bs
		}
		if bs.Dense && hubBS == nil {
			hubBS = bs
		}
	}
	if normalBS == nil || hubBS == nil {
		t.Skip("deployment lacks needed regions")
	}
	att := func(bs *BaseStation, rat telephony.RAT, lvl telephony.SignalLevel) Attachment {
		return Attachment{BS: bs, RAT: rat, Level: lvl}
	}
	// Monotone decrease over levels 0..4 on a normal BS.
	prev := math.Inf(1)
	for l := telephony.Level0; l <= telephony.Level4; l++ {
		h := n.Hazard(ISPA, att(normalBS, telephony.RAT4G, l))
		if h >= prev {
			t.Errorf("hazard not decreasing at level %d: %v >= %v", l, h, prev)
		}
		prev = h
	}
	// Level-5 on a normal BS is the lowest; on a hub BS it jumps above
	// levels 1-4 (Figure 15 anomaly).
	normal5 := n.Hazard(ISPA, att(normalBS, telephony.RAT4G, telephony.Level5))
	if normal5 >= prev {
		t.Error("normal-BS level-5 hazard should be the lowest")
	}
	hub5 := n.Hazard(ISPA, att(hubBS, telephony.RAT4G, telephony.Level5))
	for l := telephony.Level1; l <= telephony.Level4; l++ {
		if hub5 <= n.Hazard(ISPA, att(hubBS, telephony.RAT4G, l)) {
			t.Errorf("hub level-5 hazard %v should exceed level-%d", hub5, l)
		}
	}
	// RAT ordering: 3G < 2G < 4G < 5G at fixed level/BS.
	h := func(rat telephony.RAT) float64 { return n.Hazard(ISPA, att(normalBS, rat, telephony.Level3)) }
	if !(h(telephony.RAT3G) < h(telephony.RAT2G) && h(telephony.RAT2G) < h(telephony.RAT4G) && h(telephony.RAT4G) < h(telephony.RAT5G)) {
		t.Error("RAT hazard ordering should be 3G < 2G < 4G < 5G")
	}
	// ISP ordering at fixed context: B > A > C.
	ha := n.Hazard(ISPA, att(normalBS, telephony.RAT4G, telephony.Level3))
	hb := n.Hazard(ISPB, att(normalBS, telephony.RAT4G, telephony.Level3))
	hc := n.Hazard(ISPC, att(normalBS, telephony.RAT4G, telephony.Level3))
	if !(hb > ha && ha > hc) {
		t.Errorf("ISP hazard ordering B>A>C violated: %v %v %v", hb, ha, hc)
	}
	// Nil attachment is harmless.
	if n.Hazard(ISPA, Attachment{}) != 0 {
		t.Error("nil attachment hazard should be 0")
	}
}

func TestLevelHazardAccessors(t *testing.T) {
	if LevelHazard(telephony.Level0) <= LevelHazard(telephony.Level4) {
		t.Error("LevelHazard should decrease with level")
	}
	if LevelHazard(telephony.SignalLevel(99)) != 0 {
		t.Error("invalid level should have zero hazard")
	}
	if hubLevel5Hazard <= LevelHazard(telephony.Level4) {
		t.Error("hub level-5 hazard should exceed level-4 hazard")
	}
}

func TestSampleSetupCauseHubSkew(t *testing.T) {
	r := rng.New(8)
	hub := &BaseStation{Dense: true}
	normal := &BaseStation{}
	emm := func(bs *BaseStation) float64 {
		hits := 0
		n := 20000
		for i := 0; i < n; i++ {
			c := SampleSetupCause(r, Attachment{BS: bs, Level: telephony.Level5})
			if c == telephony.CauseEMMAccessBarred || c == telephony.CauseInvalidEMMState {
				hits++
			}
			if c.IsFalsePositive() {
				t.Fatalf("sampled false-positive cause %v", c)
			}
		}
		return float64(hits) / float64(n)
	}
	hubFrac, normFrac := emm(hub), emm(normal)
	if hubFrac < 0.5 {
		t.Errorf("hub EMM cause fraction = %.2f, want >= 0.5", hubFrac)
	}
	if normFrac > 0.2 {
		t.Errorf("normal EMM cause fraction = %.2f, want small", normFrac)
	}
}

func TestSampleSetupCauseMatchesTable2(t *testing.T) {
	r := rng.New(9)
	n := 300000
	counts := map[telephony.FailCause]int{}
	for i := 0; i < n; i++ {
		counts[SampleSetupCause(r, Attachment{BS: &BaseStation{}})]++
	}
	got := float64(counts[telephony.CauseGPRSRegistrationFail]) / float64(n) * 100
	if math.Abs(got-12.8) > 0.5 {
		t.Errorf("GPRS_REGISTRATION_FAIL share = %.2f%%, want ~12.8%%", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultDeployment(500), rng.New(77))
	b, _ := Generate(DefaultDeployment(500), rng.New(77))
	for i := range a.Stations {
		x, y := a.Stations[i], b.Stations[i]
		if x.Identity != y.Identity || x.ISP != y.ISP || x.Region != y.Region || x.LoadWeight != y.LoadWeight {
			t.Fatalf("station %d differs between identical seeds", i)
		}
	}
}

// TestStationsPerRAT counts hand-built stations: a station counts once
// under every RAT it offers, a RAT listed twice counts once, and a station
// with no RATs counts nowhere.
func TestStationsPerRAT(t *testing.T) {
	station := func(rats ...telephony.RAT) *BaseStation { return &BaseStation{RATs: rats} }
	for _, tc := range []struct {
		name     string
		stations []*BaseStation
		want     [telephony.RAT5G + 1]int64
	}{
		{"empty", nil, [telephony.RAT5G + 1]int64{}},
		{"one 4G", []*BaseStation{station(telephony.RAT4G)}, [telephony.RAT5G + 1]int64{telephony.RAT4G: 1}},
		{"mixed", []*BaseStation{
			station(telephony.RAT2G, telephony.RAT3G, telephony.RAT4G),
			station(telephony.RAT4G, telephony.RAT5G),
			station(telephony.RAT5G, telephony.RAT5G),
			station(),
		}, [telephony.RAT5G + 1]int64{telephony.RAT2G: 1, telephony.RAT3G: 1, telephony.RAT4G: 2, telephony.RAT5G: 2}},
	} {
		if got := newNetwork(tc.stations).StationsPerRAT(); got != tc.want {
			t.Errorf("%s: StationsPerRAT = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTransitionHazardShape(t *testing.T) {
	bs := &BaseStation{}
	dense := &BaseStation{Dense: true}
	att := func(b *BaseStation, rat telephony.RAT, l telephony.SignalLevel) Attachment {
		return Attachment{BS: b, RAT: rat, Level: l}
	}
	// Monotone decreasing in destination level.
	prev := math.Inf(1)
	for l := telephony.Level0; l <= telephony.Level5; l++ {
		h := TransitionHazard(att(bs, telephony.RAT4G, l))
		if h >= prev {
			t.Errorf("transition hazard not decreasing at level %d", l)
		}
		prev = h
	}
	// Level-0 must dwarf everything (Figure 17's dark cells).
	if TransitionHazard(att(bs, telephony.RAT4G, telephony.Level0)) < 3*TransitionHazard(att(bs, telephony.RAT4G, telephony.Level1)) {
		t.Error("level-0 transition hazard should dwarf level-1")
	}
	// Destination contention: handing into idle 3G is safer than into 5G.
	if TransitionHazard(att(bs, telephony.RAT3G, telephony.Level2)) >= TransitionHazard(att(bs, telephony.RAT5G, telephony.Level2)) {
		t.Error("3G destination should be safer than 5G at equal level")
	}
	// Dense-deployment EMM churn raises it.
	if TransitionHazard(att(dense, telephony.RAT4G, telephony.Level2)) <= TransitionHazard(att(bs, telephony.RAT4G, telephony.Level2)) {
		t.Error("dense BS should raise transition hazard")
	}
	// Degenerate attachments are harmless.
	if TransitionHazard(Attachment{}) != 0 {
		t.Error("nil BS should have zero transition hazard")
	}
	if TransitionHazard(att(bs, telephony.RAT4G, telephony.SignalLevel(99))) != 0 {
		t.Error("invalid level should have zero transition hazard")
	}
}
