// Package telephony defines the cellular domain vocabulary shared by the
// whole reproduction: radio access technologies, signal levels, cell
// identity, APNs, service state, and the data-connection failure-cause
// registry modeled on Android's DataFailCause.
//
// Android defines 344 data-fail-cause codes; the paper's Table 2 lists the
// ten most common ones (46.7% of all Data_Setup_Error failures after
// false-positive removal) plus codes correlated with false positives, such
// as base-station overload rejections. This package carries the subset the
// study's analysis depends on, with the metadata (protocol layer, false
// positive correlation) that the monitoring service uses to filter events.
package telephony

import "fmt"

// RAT is a radio access technology generation.
type RAT uint8

// Radio access technologies in increasing generation order.
const (
	RATUnknown RAT = iota
	RAT2G
	RAT3G
	RAT4G
	RAT5G
)

// AllRATs lists the concrete RATs in generation order.
var AllRATs = []RAT{RAT2G, RAT3G, RAT4G, RAT5G}

func (r RAT) String() string {
	switch r {
	case RAT2G:
		return "2G"
	case RAT3G:
		return "3G"
	case RAT4G:
		return "4G"
	case RAT5G:
		return "5G"
	default:
		return "unknown"
	}
}

// Generation returns the numeric generation (2..5), or 0 if unknown.
func (r RAT) Generation() int {
	switch r {
	case RAT2G:
		return 2
	case RAT3G:
		return 3
	case RAT4G:
		return 4
	case RAT5G:
		return 5
	default:
		return 0
	}
}

// SignalLevel is Android's 0 (worst) to 5 (excellent) signal bucketing.
// The paper's Figures 15-17 are keyed on these levels.
type SignalLevel uint8

// Signal levels. LevelExcellent (5) is the counter-intuitive bucket the
// paper studies: dense transport-hub deployments give excellent RSS yet a
// higher failure likelihood than levels 1-4.
const (
	Level0 SignalLevel = iota // none / worst
	Level1
	Level2
	Level3
	Level4
	Level5 // excellent

	NumSignalLevels = 6
)

func (l SignalLevel) String() string { return fmt.Sprintf("level-%d", uint8(l)) }

// Valid reports whether the level is within Android's 0-5 range.
func (l SignalLevel) Valid() bool { return l < NumSignalLevels }

// CellIdentity identifies a base station. GSM/LTE/NR cells carry
// MCC/MNC/LAC/CID; CDMA cells instead carry SID/NID/BID (footnote 3 of the
// paper), distinguished by CDMA.
type CellIdentity struct {
	MCC  uint16 // mobile country code
	MNC  uint16 // mobile network code (or CDMA SID)
	LAC  uint32 // location area code (or CDMA NID)
	CID  uint32 // cell identity (or CDMA BID)
	CDMA bool
}

func (c CellIdentity) String() string {
	if c.CDMA {
		return fmt.Sprintf("cdma:%d-%d-%d-%d", c.MCC, c.MNC, c.LAC, c.CID)
	}
	return fmt.Sprintf("cell:%d-%d-%d-%d", c.MCC, c.MNC, c.LAC, c.CID)
}

// GlobalID packs the identity into a comparable 64-bit key for maps.
func (c CellIdentity) GlobalID() uint64 {
	id := uint64(c.MCC)<<48 | uint64(c.MNC)<<32 | uint64(c.LAC&0xFFFF)<<16 | uint64(c.CID&0xFFFF)
	if c.CDMA {
		id |= 1 << 63
	}
	return id
}

// APN is an access point name: one of the APN types trace records carry.
// It is one byte wherever an event is held; its String is the name that
// goes on the wire and into digests.
type APN uint8

// APN types. APNNone is an event that recorded no APN (the empty name).
const (
	APNNone APN = iota
	APNDefault
	APNIMS
	APNMMS
	APNSUPL

	NumAPNs = 5
)

var apnNames = [NumAPNs]string{"", "default", "ims", "mms", "supl"}

func (a APN) String() string {
	if a < NumAPNs {
		return apnNames[a]
	}
	return "unknown"
}

// ParseAPN returns the APN a name spells; ok is false for any other name.
func ParseAPN(name []byte) (a APN, ok bool) {
	for i, n := range apnNames {
		if string(name) == n {
			return APN(i), true
		}
	}
	return 0, false
}

// ServiceState mirrors Android's ServiceState voice/data registration state.
type ServiceState uint8

// Service states.
const (
	StateInService ServiceState = iota
	StateOutOfService
	StateEmergencyOnly
	StatePowerOff
)

func (s ServiceState) String() string {
	switch s {
	case StateInService:
		return "IN_SERVICE"
	case StateOutOfService:
		return "OUT_OF_SERVICE"
	case StateEmergencyOnly:
		return "EMERGENCY_ONLY"
	case StatePowerOff:
		return "POWER_OFF"
	default:
		return "UNKNOWN"
	}
}
