// Package geo models the geographic context of base stations and devices.
//
// The paper attributes several findings to geography: top-ranking failing
// BSes concentrate in crowded urban areas; extremely long failures (up to
// 25.5 hours) come from neglected BSes in remote mountain/offshore regions;
// and the level-5 RSS anomaly comes from densely deployed BSes around
// public transport hubs.
package geo

// Region classifies where a base station is deployed.
type Region uint8

// Regions.
const (
	Urban Region = iota
	Suburban
	Rural
	Remote       // mountain / offshore; BSes long neglected and in disrepair
	TransportHub // dense multi-ISP deployment; excellent RSS, heavy interference

	NumRegions = 5
)

func (r Region) String() string {
	switch r {
	case Urban:
		return "urban"
	case Suburban:
		return "suburban"
	case Rural:
		return "rural"
	case Remote:
		return "remote"
	case TransportHub:
		return "transport-hub"
	default:
		return "unknown"
	}
}

// Profile captures the per-region parameters the radio environment uses.
type Profile struct {
	Region Region
	// BSShare is the fraction of deployed BSes in this region type.
	BSShare float64
	// TrafficShare is the fraction of device attach time spent here;
	// population concentrates in urban areas and hubs.
	TrafficShare float64
	// InterferenceFactor scales failure hazard from ambient interference
	// and adjacent-channel overlap (highest at transport hubs, §3.3).
	InterferenceFactor float64
	// NeglectFactor scales failure duration: remote BSes are "long
	// neglected and in disrepair", producing multi-hour outages.
	NeglectFactor float64
	// DenseDeployment marks regions where ISPs deploy without coordination
	// at high density, triggering EMM mobility-management failures despite
	// excellent RSS.
	DenseDeployment bool
	// DwellFactor scales how long a visit to this region lasts relative
	// to a normal camp: transport-hub visits are brief (passing through a
	// station), which is why excellent-RSS failures look so dense once
	// prevalence is normalized by connected time (Figure 15).
	DwellFactor float64
}

// profiles is the per-region parameter table indexed by Region.
var profiles = [NumRegions]Profile{
	Urban:        {Region: Urban, BSShare: 0.42, TrafficShare: 0.55, InterferenceFactor: 1.3, NeglectFactor: 1.0, DwellFactor: 1.0},
	Suburban:     {Region: Suburban, BSShare: 0.30, TrafficShare: 0.25, InterferenceFactor: 1.0, NeglectFactor: 1.2, DwellFactor: 1.0},
	Rural:        {Region: Rural, BSShare: 0.20, TrafficShare: 0.10, InterferenceFactor: 0.8, NeglectFactor: 2.0, DwellFactor: 1.0},
	Remote:       {Region: Remote, BSShare: 0.05, TrafficShare: 0.02, InterferenceFactor: 0.7, NeglectFactor: 12.0, DwellFactor: 1.0},
	TransportHub: {Region: TransportHub, BSShare: 0.03, TrafficShare: 0.08, InterferenceFactor: 2.2, NeglectFactor: 1.0, DenseDeployment: true, DwellFactor: 0.12},
}

// Profiles returns a copy of the per-region parameter table indexed by
// Region.
func Profiles() [NumRegions]Profile { return profiles }

// Profile returns the parameters for a single region.
func (r Region) Profile() Profile {
	if int(r) >= NumRegions {
		return Profile{Region: r}
	}
	return profiles[r]
}
