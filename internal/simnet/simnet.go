// Package simnet simulates the nationwide cellular radio environment the
// paper's fleet measured: three mobile ISPs, a Zipf-skewed population of
// multi-RAT base stations across region types, a received-signal-strength
// model, and the relative failure hazards that drive every landscape
// finding in §3.3 (ISP discrepancy, RAT discrepancy, the level-5 RSS
// anomaly at transport hubs).
package simnet

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/telephony"
)

// ISPID identifies one of the three studied carriers.
type ISPID uint8

// The three ISPs of the study. A maps to the largest carrier, B to the one
// with inferior signal coverage (higher radio frequency), C to the smallest.
const (
	ISPA ISPID = iota
	ISPB
	ISPC

	NumISPs = 3
)

func (id ISPID) String() string {
	switch id {
	case ISPA:
		return "ISP-A"
	case ISPB:
		return "ISP-B"
	case ISPC:
		return "ISP-C"
	default:
		return "ISP-?"
	}
}

// ISP describes a carrier.
type ISP struct {
	ID ISPID
	// BSShare is the fraction of all BSes (paper: 44.8%, 29.4%, 25.8%).
	BSShare float64
	// UserShare is the fraction of devices subscribed to this ISP.
	UserShare float64
	// MedianFreqMHz orders the carriers' radio bands (B's > C's > A's);
	// higher frequency means smaller per-BS coverage.
	MedianFreqMHz float64
	// CoverageFactor scales the signal-level distribution; <1 shifts
	// levels down (ISP-B's inferior coverage).
	CoverageFactor float64
	// HazardFactor is the relative failure-rate multiplier for users of
	// this ISP, calibrated so per-context failure intensity orders
	// B > A > C.
	HazardFactor float64
	// PrevalenceFactor scales a subscriber's probability of experiencing
	// any failure at all, reproducing Figure 12's per-ISP prevalences
	// (27.1% B, 20.1% A, 14.7% C against the 23% fleet average).
	PrevalenceFactor float64
}

// ISPs returns the three carriers with paper-calibrated parameters.
func ISPs() [NumISPs]ISP {
	return [NumISPs]ISP{
		ISPA: {ID: ISPA, BSShare: 0.448, UserShare: 0.58, MedianFreqMHz: 1900, CoverageFactor: 1.00, HazardFactor: 1.00, PrevalenceFactor: 0.97},
		ISPB: {ID: ISPB, BSShare: 0.294, UserShare: 0.24, MedianFreqMHz: 2400, CoverageFactor: 0.80, HazardFactor: 1.45, PrevalenceFactor: 1.30},
		ISPC: {ID: ISPC, BSShare: 0.258, UserShare: 0.18, MedianFreqMHz: 2100, CoverageFactor: 1.08, HazardFactor: 0.70, PrevalenceFactor: 0.71},
	}
}

// RATShares is the fraction of BSes supporting each RAT (paper §3.3:
// 23.4% 2G, 10.2% 3G, 65.2% 4G, 7.3% 5G; multi-RAT BSes overlap).
var RATShares = map[telephony.RAT]float64{
	telephony.RAT2G: 0.234,
	telephony.RAT3G: 0.102,
	telephony.RAT4G: 0.652,
	telephony.RAT5G: 0.073,
}

// ContentionFactor is the per-RAT resource-contention hazard multiplier.
// 3G is "relatively idle" (not preferred when 4G is available, worse
// coverage than 2G otherwise) so it sees the lowest failure prevalence;
// 5G modules are immature and heavily loaded, so they see the highest
// (Figures 14, 6, 7).
var ContentionFactor = map[telephony.RAT]float64{
	telephony.RAT2G: 1.00,
	telephony.RAT3G: 0.18,
	telephony.RAT4G: 1.05,
	telephony.RAT5G: 1.60,
}

// levelHazard is the relative failure hazard per signal level for BSes
// outside dense deployments: monotonically decreasing as signal improves
// (Figure 15, levels 0-4).
var levelHazard = [telephony.NumSignalLevels]float64{3.2, 2.1, 1.5, 1.1, 0.75, 0.55}

// transitionLevelHazard is the relative failure hazard of a RAT
// *transition* as a function of the post-transition signal level. It is
// far more peaked at level-0 than the steady-state hazard: a handover into
// a target with no usable signal fails outright (Figure 17's dark cells:
// transitions into level-0 raise the normalized failure prevalence by up
// to +0.37, while transitions into levels 1-5 barely move it).
var transitionLevelHazard = [telephony.NumSignalLevels]float64{40, 12, 4, 1.5, 0.8, 0.5}

// TransitionHazard returns the relative failure hazard of camping on the
// given attachment immediately after a RAT transition. The destination's
// signal level dominates; the destination RAT's contention scales it
// (handing into an idle 3G network is far safer than into a loaded 5G
// cell at the same level).
func TransitionHazard(att Attachment) float64 {
	if att.BS == nil || !att.Level.Valid() {
		return 0
	}
	h := transitionLevelHazard[att.Level] * ContentionFactor[att.RAT]
	if att.BS.Dense {
		h *= 1.5 // dense-deployment mobility management (EMM) churn
	}
	return h
}

// hubLevel5Hazard is the hazard at excellent RSS on densely deployed
// transport-hub BSes, where adjacent-channel interference and complex LTE
// mobility management cause frequent EMM failures despite level-5 signal.
// It exceeds the level-1..4 hazards, producing the Figure 15 jump.
const hubLevel5Hazard = 8.0

// BaseStation is one simulated cell site.
type BaseStation struct {
	Identity telephony.CellIdentity
	ISP      ISPID
	Region   geo.Region
	// RATs lists supported access technologies (at least one).
	RATs []telephony.RAT
	// LoadWeight is the relative attachment popularity; Zipf-distributed
	// across the deployment so failure counts per BS reproduce Figure 11.
	LoadWeight float64
	// Dense marks membership in an uncoordinated dense cluster (hubs).
	Dense bool
}

// Supports reports whether the BS offers the given RAT.
func (b *BaseStation) Supports(rat telephony.RAT) bool {
	for _, r := range b.RATs {
		if r == rat {
			return true
		}
	}
	return false
}

// DeploymentConfig controls deployment generation.
type DeploymentConfig struct {
	// NumBS is the total number of base stations to generate.
	NumBS int
	// ZipfSkew is the exponent of the per-BS load weights (paper fit:
	// a = 0.82 in Figure 11).
	ZipfSkew float64
}

// DefaultDeployment returns the configuration used by the standard fleet
// scenario: numBS stations with the Figure 11 skew.
func DefaultDeployment(numBS int) DeploymentConfig {
	return DeploymentConfig{NumBS: numBS, ZipfSkew: 0.82}
}

// Network is a generated radio environment. The zero value has no
// stations: every Attach on it fails.
type Network struct {
	Stations []*BaseStation
	isps     [NumISPs]ISP

	// pools indexes stations by (ISP, region), each a categorical sampler
	// over station load weights; an empty pool has no stations.
	pools [NumISPs][geo.NumRegions]stationPool
}

// StationsPerRAT returns how many stations offer each RAT, indexed by RAT.
func (n *Network) StationsPerRAT() [telephony.RAT5G + 1]int64 {
	var perRAT [telephony.RAT5G + 1]int64
	for _, bs := range n.Stations {
		for _, rat := range telephony.AllRATs {
			if bs.Supports(rat) {
				perRAT[rat]++
			}
		}
	}
	return perRAT
}

// stationPool draws a station proportionally to load weight. prefix holds
// the running sums of the stations' weights in station order. guide
// narrows a draw's search to one of len(stations)+1 equal buckets: a draw u
// falls in bucket b = int(u*scale), and guide[b] is the first station whose
// running sum falls in bucket b or a later one, so u's station lies in
// [guide[b], guide[b+1]].
type stationPool struct {
	stations []*BaseStation
	prefix   []float64
	guide    []int32
	scale    float64
}

// newNetwork indexes stations into the per-(ISP, region) pools, in station
// order. A station whose ISP or region is out of range, or whose load
// weight is not a finite non-negative number, joins no pool: it stays in
// Stations (and so in every census of them) but Attach never selects it.
func newNetwork(stations []*BaseStation) *Network {
	n := &Network{Stations: stations, isps: ISPs()}
	for _, bs := range stations {
		if int(bs.ISP) >= NumISPs || int(bs.Region) >= geo.NumRegions ||
			!(bs.LoadWeight >= 0 && bs.LoadWeight <= math.MaxFloat64) {
			continue
		}
		p := &n.pools[bs.ISP][bs.Region]
		total := 0.0
		if k := len(p.prefix); k > 0 {
			total = p.prefix[k-1]
		}
		p.stations = append(p.stations, bs)
		p.prefix = append(p.prefix, total+bs.LoadWeight)
	}
	for isp := range n.pools {
		for reg := range n.pools[isp] {
			if p := &n.pools[isp][reg]; len(p.stations) > 0 {
				p.buildGuide()
			}
		}
	}
	return n
}

// buildGuide fills guide and scale from prefix, which never decreases.
// A pool whose weights sum to zero has one bucket holding every station.
func (p *stationPool) buildGuide() {
	n := len(p.prefix)
	if total := p.prefix[n-1]; total > 0 {
		p.scale = float64(n) / total
	}
	p.guide = make([]int32, n+2)
	i := 0
	for b := range p.guide {
		for i < n && int(p.prefix[i]*p.scale) < b {
			i++
		}
		p.guide[b] = int32(i)
	}
}

// Generate builds a deployment. Stations are distributed across ISPs by BS
// share and across regions by regional BS share; RAT support is sampled to
// match the paper's marginal shares; load weights follow a Zipf law.
func Generate(cfg DeploymentConfig, r *rng.Source) (*Network, error) {
	if cfg.NumBS <= 0 {
		return nil, fmt.Errorf("simnet: NumBS must be positive, got %d", cfg.NumBS)
	}
	if cfg.ZipfSkew <= 0 {
		cfg.ZipfSkew = 0.82
	}
	ispWeights := make([]float64, NumISPs)
	for i, isp := range ISPs() {
		ispWeights[i] = isp.BSShare
	}
	ispPick := rng.NewCategorical(ispWeights)

	profiles := geo.Profiles()
	regionWeights := make([]float64, geo.NumRegions)
	for i, p := range profiles {
		regionWeights[i] = p.BSShare
	}
	regionPick := rng.NewCategorical(regionWeights)

	// Zipf load weights assigned over a random permutation so rank is not
	// correlated with ISP or region.
	perm := r.Perm(cfg.NumBS)

	stations := make([]*BaseStation, 0, cfg.NumBS)
	for i := 0; i < cfg.NumBS; i++ {
		isp := ISPID(ispPick.Draw(r))
		region := geo.Region(regionPick.Draw(r))
		bs := &BaseStation{
			Identity: telephony.CellIdentity{
				MCC: 460,
				MNC: uint16(isp),
				LAC: uint32(1 + i/1024),
				CID: uint32(1 + i%1024 + (i/1024)<<10),
			},
			ISP:        isp,
			Region:     region,
			RATs:       sampleRATs(r, region),
			LoadWeight: math.Pow(float64(perm[i]+1), -cfg.ZipfSkew),
			Dense:      region.Profile().DenseDeployment,
		}
		stations = append(stations, bs)
	}
	return newNetwork(stations), nil
}

// ratPrimaryPick draws each BS's guaranteed primary RAT with probabilities
// proportional to the marginal shares.
var ratPrimaryPick = func() *rng.Categorical {
	ws := make([]float64, len(telephony.AllRATs))
	for i, rat := range telephony.AllRATs {
		ws[i] = RATShares[rat]
	}
	return rng.NewCategorical(ws)
}()

// sampleRATs draws a BS's supported RAT set. Each BS gets exactly one
// primary RAT (categorical over the marginal shares) plus independent
// secondary RATs with probabilities solved so the overall marginals match
// the paper's 23.4%/10.2%/65.2%/7.3%. 5G rollout concentrates in cities:
// rural/remote 5G primaries are demoted to 4G and urban/hub BSes add 5G as
// a secondary more often.
func sampleRATs(r *rng.Source, region geo.Region) []telephony.RAT {
	shareSum := 0.0
	for _, rat := range telephony.AllRATs {
		shareSum += RATShares[rat]
	}
	primary := telephony.AllRATs[ratPrimaryPick.Draw(r)]
	if primary == telephony.RAT5G && (region == geo.Remote || region == geo.Rural) && r.Bool(0.85) {
		primary = telephony.RAT4G
	}
	rats := []telephony.RAT{primary}
	for _, rat := range telephony.AllRATs {
		if rat == primary {
			continue
		}
		prim := RATShares[rat] / shareSum
		q := (RATShares[rat] - prim) / (1 - prim)
		if rat == telephony.RAT5G {
			switch region {
			case geo.Urban, geo.TransportHub:
				q *= 4 // cities host the 5G build-out
			case geo.Rural, geo.Remote:
				q = 0
			}
		}
		if r.Bool(q) {
			rats = append(rats, rat)
		}
	}
	return rats
}

// ISP returns the carrier descriptor.
func (n *Network) ISP(id ISPID) ISP { return n.isps[id] }

// Attachment describes a device camped on a BS with a specific RAT and
// signal level.
type Attachment struct {
	BS    *BaseStation
	RAT   telephony.RAT
	Level telephony.SignalLevel
}

// Overlay adjusts the radio environment as a function of virtual time. The
// fault-injection subsystem implements it to superimpose degradation
// windows and capability outages on a generated deployment without
// regenerating it; a nil Overlay leaves the environment untouched and the
// attach path draw-for-draw identical to the unfaulted one.
type Overlay interface {
	// LevelShift returns how many signal levels to subtract for a device
	// of the given ISP camped in the given region at virtual time at
	// (0 = no degradation; results clamp at level 0).
	LevelShift(isp ISPID, region geo.Region, at time.Duration) int
	// RATBlocked reports whether the RAT is unusable for the ISP at
	// virtual time at (a capability outage: the fleet-wide loss of one
	// access technology, e.g. a 5G core failure).
	RATBlocked(isp ISPID, rat telephony.RAT, at time.Duration) bool
}

// AttachAt is Attach under a fault overlay at virtual time at: blocked
// RATs cannot be camped on (the device falls back to the best unblocked
// RAT the BS supports, or fails to attach if there is none), and regional
// RSS degradation shifts the sampled signal level down. A nil overlay
// reduces to Attach and consumes exactly the same random draws.
func (n *Network) AttachAt(r *rng.Source, isp ISPID, region geo.Region, wantRAT telephony.RAT, at time.Duration, ov Overlay) (Attachment, error) {
	if int(isp) >= NumISPs {
		return Attachment{}, fmt.Errorf("simnet: no stations for %v", isp)
	}
	var pool *stationPool
	if int(region) < geo.NumRegions && len(n.pools[isp][region].stations) > 0 {
		pool = &n.pools[isp][region]
	} else {
		// Sparse deployments may lack a region; fall back to any region
		// for this ISP.
		for reg := range n.pools[isp] {
			if len(n.pools[isp][reg].stations) > 0 {
				pool = &n.pools[isp][reg]
				break
			}
		}
		if pool == nil {
			return Attachment{}, fmt.Errorf("simnet: no stations for %v", isp)
		}
	}
	bs := pool.pick(r)
	rat := wantRAT
	if !bs.Supports(rat) || (ov != nil && ov.RATBlocked(isp, rat, at)) {
		rat = bestUnblockedRAT(bs, isp, at, ov)
		if rat == telephony.RATUnknown {
			return Attachment{}, fmt.Errorf("simnet: every RAT of the chosen BS is blocked")
		}
	}
	level := n.SampleLevel(r, bs, rat)
	if ov != nil {
		if shift := ov.LevelShift(isp, bs.Region, at); shift > 0 {
			if int(level) <= shift {
				level = telephony.SignalLevel(0)
			} else {
				level -= telephony.SignalLevel(shift)
			}
		}
	}
	return Attachment{BS: bs, RAT: rat, Level: level}, nil
}

// bestUnblockedRAT returns the highest-generation supported RAT that the
// overlay does not block (RATUnknown if all are blocked).
func bestUnblockedRAT(bs *BaseStation, isp ISPID, at time.Duration, ov Overlay) telephony.RAT {
	best := telephony.RATUnknown
	for _, rat := range bs.RATs {
		if ov != nil && ov.RATBlocked(isp, rat, at) {
			continue
		}
		if rat.Generation() > best.Generation() {
			best = rat
		}
	}
	return best
}

// pick draws a station proportionally to load weight.
func (p *stationPool) pick(r *rng.Source) *BaseStation {
	return p.stations[p.index(r.Float64()*p.prefix[len(p.prefix)-1])]
}

// index returns the first station whose running sum exceeds u, or the last
// station if none does: a binary search of u's guide bucket. Running sums
// never decrease, so it is the index sort.Search finds over the whole
// table, ties and zero weights included. The bucket is clamped, so a u that
// is not finite still lands in the table.
func (p *stationPool) index(u float64) int {
	b := min(uint(int(u*p.scale)), uint(len(p.stations)))
	i, j := int(p.guide[b]), int(p.guide[b+1])
	for i < j {
		h := int(uint(i+j) >> 1)
		if p.prefix[h] > u {
			j = h
		} else {
			i = h + 1
		}
	}
	return min(i, len(p.stations)-1)
}

// baseLevelWeights is the signal-level distribution by region before ISP
// coverage adjustment. Transport hubs overwhelmingly deliver excellent RSS.
var baseLevelWeights = [geo.NumRegions][telephony.NumSignalLevels]float64{
	geo.Urban:        {0.02, 0.08, 0.16, 0.33, 0.35, 0.06},
	geo.Suburban:     {0.04, 0.12, 0.22, 0.33, 0.26, 0.03},
	geo.Rural:        {0.10, 0.22, 0.28, 0.25, 0.14, 0.01},
	geo.Remote:       {0.30, 0.30, 0.20, 0.13, 0.065, 0.005},
	geo.TransportHub: {0.01, 0.02, 0.05, 0.12, 0.20, 0.60},
}

// numRATs bounds the RAT values the level tables cover (RATUnknown …
// RAT5G).
const numRATs = int(telephony.RAT5G) + 1

// levelTables holds, per (region, ISP, RAT), the running sums of the
// tilted level weights w_l * cov^l: ISP coverage (B inferior) shifts the
// distribution down by exponential tilting, as do 3G's poor coverage and
// 5G's shorter range. float64(...) rounds each product before it is
// summed, forbidding an FMA (arm64).
var levelTables = func() (t [geo.NumRegions][NumISPs][numRATs][telephony.NumSignalLevels]float64) {
	isps := ISPs()
	for region := range t {
		weights := baseLevelWeights[region]
		for isp := range t[region] {
			for rat := range t[region][isp] {
				cov := isps[isp].CoverageFactor
				switch telephony.RAT(rat) {
				case telephony.RAT3G:
					cov *= 0.80 // 3G coverage much worse than 2G when 4G unavailable
				case telephony.RAT5G:
					cov *= 0.60 // mmWave/sub-6 far shorter range than LTE; weak 5G is common
				case telephony.RAT2G:
					cov *= 1.10
				}
				acc := 0.0
				for l := range weights {
					acc += float64(weights[l] * math.Pow(cov, float64(l)))
					t[region][isp][rat][l] = acc
				}
			}
		}
	}
	return t
}()

// SampleLevel draws a signal level for a device camped on bs with rat from
// the (region, ISP, RAT) level table. A RAT past RAT5G is untilted, like
// RATUnknown. bs must have an in-range ISP and region (every station Attach
// can select has); SampleLevel panics otherwise.
func (n *Network) SampleLevel(r *rng.Source, bs *BaseStation, rat telephony.RAT) telephony.SignalLevel {
	if int(rat) >= numRATs {
		rat = telephony.RATUnknown
	}
	return levelAt(&levelTables[bs.Region][bs.ISP][rat], r.Float64())
}

// levelAt maps a uniform draw f to the first level whose running sum
// exceeds f scaled by the table's total.
func levelAt(cum *[telephony.NumSignalLevels]float64, f float64) telephony.SignalLevel {
	u := f * cum[telephony.NumSignalLevels-1]
	for l := 0; l < telephony.NumSignalLevels-1; l++ {
		if u < cum[l] {
			return telephony.SignalLevel(l)
		}
	}
	return telephony.Level5
}

// Hazard returns the relative failure-rate multiplier for a device of the
// given ISP camped as att. It composes the ISP factor, RAT contention,
// signal-level hazard (with the dense-deployment level-5 anomaly), and
// regional interference.
func (n *Network) Hazard(isp ISPID, att Attachment) float64 {
	if att.BS == nil {
		return 0
	}
	lh := levelHazard[att.Level]
	if att.BS.Dense && att.Level == telephony.Level5 {
		lh = hubLevel5Hazard
	}
	h := n.isps[isp].HazardFactor * ContentionFactor[att.RAT] * lh
	h *= interferenceScale(att.BS.Region)
	return h
}

// sqrtInterference is √InterferenceFactor per region.
var sqrtInterference = func() (s [geo.NumRegions]float64) {
	for i, p := range geo.Profiles() {
		s[i] = math.Sqrt(p.InterferenceFactor)
	}
	return s
}()

// interferenceScale is the regional interference term of Hazard: 0 for a
// region out of range, whose Profile has no interference factor.
func interferenceScale(r geo.Region) float64 {
	if int(r) < geo.NumRegions {
		return sqrtInterference[r]
	}
	return 0
}

// LevelHazard exposes the calibrated per-level hazard used by Hazard for a
// non-dense BS; the RAT-transition analysis (Figure 17) normalizes against
// it.
func LevelHazard(l telephony.SignalLevel) float64 {
	if !l.Valid() {
		return 0
	}
	return levelHazard[l]
}

var setupCauses, setupCausePick = func() ([]telephony.FailCause, *rng.Categorical) {
	causes, weights := telephony.GeneratorWeights()
	return causes, rng.NewCategorical(weights)
}()

// SampleSetupCause draws a Data_Setup_Error fail cause for the attachment
// context. Dense transport-hub failures skew heavily toward EMM mobility
// management causes (EMM_ACCESS_BARRED, INVALID_EMM_STATE), reproducing the
// paper's root-cause finding for the level-5 anomaly.
func SampleSetupCause(r *rng.Source, att Attachment) telephony.FailCause {
	if att.BS != nil && att.BS.Dense && r.Bool(0.55) {
		if r.Bool(0.5) {
			return telephony.CauseEMMAccessBarred
		}
		return telephony.CauseInvalidEMMState
	}
	return setupCauses[setupCausePick.Draw(r)]
}
