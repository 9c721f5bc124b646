package telephony

import "sort"

// Layer is the protocol layer at which a data-setup failure occurred.
// Table 2's causes span the physical layer (e.g. SIGNAL_LOST), the data
// link / MAC layer (e.g. PPP_TIMEOUT), and the network layer (e.g.
// INVALID_EMM_STATE).
type Layer uint8

// Protocol layers.
const (
	LayerUnknown Layer = iota
	LayerPhysical
	LayerLinkMAC
	LayerNetwork
)

func (l Layer) String() string {
	switch l {
	case LayerPhysical:
		return "physical"
	case LayerLinkMAC:
		return "link/MAC"
	case LayerNetwork:
		return "network"
	default:
		return "unknown"
	}
}

// FailCause is a data-connection failure cause code, modeled on Android's
// DataFailCause error codes generated by the radio interface.
type FailCause int32

// Failure causes. The first block is Table 2 of the paper (top-10 codes by
// share of Data_Setup_Error events after false-positive removal). The
// second block is additional codes referenced in the paper (EMM_ACCESS_BARRED
// appears in the transport-hub analysis). The third block is a representative
// slice of the remaining Android codes, including the ones the monitoring
// service treats as false-positive indicators (rational rejections such as
// base-station overload, user-initiated detaches, and billing suspensions).
const (
	CauseNone FailCause = 0

	// Table 2 top-10.
	CauseGPRSRegistrationFail FailCause = 1001
	CauseSignalLost           FailCause = 1002
	CauseNoService            FailCause = 1003
	CauseInvalidEMMState      FailCause = 1004
	CauseUnpreferredRAT       FailCause = 1005
	CausePPPTimeout           FailCause = 1006
	CauseNoHybridHDRService   FailCause = 1007
	CausePDPLowerlayerError   FailCause = 1008
	CauseMaxAccessProbe       FailCause = 1009
	CauseIRATHandoverFailed   FailCause = 1010

	// Mobility-management codes from the dense-deployment analysis (§3.3).
	CauseEMMAccessBarred FailCause = 1011
	CauseEMMDetached     FailCause = 1012

	// Standard 3GPP / AOSP codes (subset of the 344).
	CauseOperatorBarred             FailCause = 8
	CauseInsufficientResources      FailCause = 26
	CauseMissingUnknownAPN          FailCause = 27
	CauseUnknownPDPAddressType      FailCause = 28
	CauseUserAuthentication         FailCause = 29
	CauseActivationRejectGGSN       FailCause = 30
	CauseActivationRejectUnspec     FailCause = 31
	CauseServiceOptionNotSupported  FailCause = 32
	CauseServiceOptionNotSubscribed FailCause = 33
	CauseServiceOptionOutOfOrder    FailCause = 34
	CauseNSAPIInUse                 FailCause = 35
	CauseRegularDeactivation        FailCause = 36
	CauseQOSNotAccepted             FailCause = 37
	CauseNetworkFailure             FailCause = 38
	CauseUMTSReactivationReq        FailCause = 39
	CauseProtocolErrors             FailCause = 111
	CauseRadioPowerOff              FailCause = 65522
	CauseTetheredCallActive         FailCause = 65523
	CausePrefRadioTechChanged       FailCause = 65521
	CauseLostConnection             FailCause = 65540
	CauseCongestion                 FailCause = 65541
	CauseVoiceCallPreemption        FailCause = 65542
	CauseBillingSuspension          FailCause = 65543
	CauseManualDetach               FailCause = 65544
	CauseIPAddressAllocation        FailCause = 65545
	CauseAuthFailureOnEmergency     FailCause = 65546
	CauseDNSUnreachable             FailCause = 65547
	CauseAPNDisabled                FailCause = 65548
	CauseModemCrash                 FailCause = 65549
	CauseRRCConnectionFailure       FailCause = 65550
)

// CauseInfo is the registry metadata for a failure cause.
type CauseInfo struct {
	Cause FailCause
	Name  string
	// Description is the human-readable meaning (Table 2 column 2).
	Description string
	// Layer classifies the failure per §3.2's decomposition.
	Layer Layer
	// FalsePositive marks codes that do not indicate a true reliability
	// failure (rational BS-overload rejection, user-initiated detach,
	// billing suspension, incoming voice-call preemption). The monitoring
	// service drops events carrying these causes.
	FalsePositive bool
	// Table2Share is the paper-reported share of true Data_Setup_Error
	// events (Table 2), zero for codes outside the top 10. The fleet
	// generator uses it to calibrate the cause mix; the analysis pipeline
	// never reads it.
	Table2Share float64
	// GenWeight is the relative sampling weight for codes outside Table 2,
	// which together account for the remaining 53.3% of events.
	GenWeight float64
}

var registry = [...]CauseInfo{
	{CauseGPRSRegistrationFail, "GPRS_REGISTRATION_FAIL", "Failures due to unsuccessful GPRS registration", LayerNetwork, false, 12.8, 0},
	{CauseSignalLost, "SIGNAL_LOST", "Failures due to network/modem disconnection", LayerPhysical, false, 7.2, 0},
	{CauseNoService, "NO_SERVICE", "No service during connection setup", LayerPhysical, false, 6.5, 0},
	{CauseInvalidEMMState, "INVALID_EMM_STATE", "Invalid state of EPS Mobility Management in LTE", LayerNetwork, false, 4.9, 0},
	{CauseUnpreferredRAT, "UNPREFERRED_RAT", "Current RAT is no longer the preferred RAT", LayerNetwork, false, 4.3, 0},
	{CausePPPTimeout, "PPP_TIMEOUT", "Failures at the Peer-to-Peer Protocol setup stage due to a timeout", LayerLinkMAC, false, 3.5, 0},
	{CauseNoHybridHDRService, "NO_HYBRID_HDR_SERVICE", "No hybrid High-Data-Rate service", LayerPhysical, false, 2.2, 0},
	{CausePDPLowerlayerError, "PDP_LOWERLAYER_ERROR", "Packet Data Protocol error due to radio resource control failures or a forbidden PLMN", LayerNetwork, false, 1.9, 0},
	{CauseMaxAccessProbe, "MAX_ACCESS_PROBE", "Exceeding maximum number of access probes", LayerLinkMAC, false, 1.8, 0},
	{CauseIRATHandoverFailed, "IRAT_HANDOVER_FAILED", "Unsuccessful transfer of data call during an Inter-RAT handover", LayerPhysical, false, 1.6, 0},

	{CauseEMMAccessBarred, "EMM_ACCESS_BARRED", "EMM access barred by LTE mobility management", LayerNetwork, false, 0, 6.0},
	{CauseEMMDetached, "EMM_DETACHED", "UE detached by EPS mobility management", LayerNetwork, false, 0, 3.0},

	{CauseOperatorBarred, "OPERATOR_BARRED", "Operator-determined barring", LayerNetwork, false, 0, 1.5},
	{CauseInsufficientResources, "INSUFFICIENT_RESOURCES", "Insufficient network resources (BS overload)", LayerNetwork, true, 0, 0},
	{CauseMissingUnknownAPN, "MISSING_UNKNOWN_APN", "Missing or unknown APN", LayerNetwork, false, 0, 2.0},
	{CauseUnknownPDPAddressType, "UNKNOWN_PDP_ADDRESS_TYPE", "Unknown PDP address or type", LayerNetwork, false, 0, 1.0},
	{CauseUserAuthentication, "USER_AUTHENTICATION", "Device authentication failure", LayerLinkMAC, false, 0, 3.0},
	{CauseActivationRejectGGSN, "ACTIVATION_REJECT_GGSN", "PDP activation rejected by GGSN", LayerNetwork, false, 0, 2.5},
	{CauseActivationRejectUnspec, "ACTIVATION_REJECT_UNSPECIFIED", "PDP activation rejected, unspecified", LayerNetwork, false, 0, 4.0},
	{CauseServiceOptionNotSupported, "SERVICE_OPTION_NOT_SUPPORTED", "Service option not supported", LayerNetwork, false, 0, 1.2},
	{CauseServiceOptionNotSubscribed, "SERVICE_OPTION_NOT_SUBSCRIBED", "Requested service option not subscribed", LayerNetwork, true, 0, 0},
	{CauseServiceOptionOutOfOrder, "SERVICE_OPTION_OUT_OF_ORDER", "Service option temporarily out of order", LayerNetwork, false, 0, 1.8},
	{CauseNSAPIInUse, "NSAPI_IN_USE", "NSAPI already used", LayerNetwork, false, 0, 0.5},
	{CauseRegularDeactivation, "REGULAR_DEACTIVATION", "Regular (user-initiated) deactivation", LayerNetwork, true, 0, 0},
	{CauseQOSNotAccepted, "QOS_NOT_ACCEPTED", "Requested QoS not accepted", LayerNetwork, false, 0, 0.8},
	{CauseNetworkFailure, "NETWORK_FAILURE", "Network failure", LayerNetwork, false, 0, 5.0},
	{CauseUMTSReactivationReq, "UMTS_REACTIVATION_REQ", "UMTS reactivation required", LayerNetwork, false, 0, 0.7},
	{CauseProtocolErrors, "PROTOCOL_ERRORS", "Protocol errors, unspecified", LayerNetwork, false, 0, 4.5},
	{CauseRadioPowerOff, "RADIO_POWER_OFF", "Radio powered off", LayerPhysical, true, 0, 0},
	{CauseTetheredCallActive, "TETHERED_CALL_ACTIVE", "Tethered call is active", LayerLinkMAC, true, 0, 0},
	{CausePrefRadioTechChanged, "PREF_RADIO_TECH_CHANGED", "Preferred radio technology changed", LayerPhysical, false, 0, 3.5},
	{CauseLostConnection, "LOST_CONNECTION", "Connection lost during setup", LayerPhysical, false, 0, 4.8},
	{CauseCongestion, "CONGESTION", "Network congestion (rational setup rejection)", LayerNetwork, true, 0, 0},
	{CauseVoiceCallPreemption, "VOICE_CALL_PREEMPTION", "Data interrupted by incoming voice call", LayerLinkMAC, true, 0, 0},
	{CauseBillingSuspension, "BILLING_SUSPENSION", "Service suspended for insufficient account balance", LayerNetwork, true, 0, 0},
	{CauseManualDetach, "MANUAL_DETACH", "User manually disconnected the network", LayerNetwork, true, 0, 0},
	{CauseIPAddressAllocation, "IP_ADDRESS_ALLOCATION", "IP address allocation failure", LayerNetwork, false, 0, 3.9},
	{CauseAuthFailureOnEmergency, "AUTH_FAILURE_ON_EMERGENCY_CALL", "Authentication failure on emergency call", LayerLinkMAC, false, 0, 0.3},
	{CauseDNSUnreachable, "DNS_UNREACHABLE", "Assigned DNS servers unreachable", LayerNetwork, false, 0, 1.5},
	{CauseAPNDisabled, "APN_DISABLED", "APN disabled by carrier policy", LayerNetwork, false, 0, 0.9},
	{CauseModemCrash, "MODEM_CRASH", "Baseband modem crash during setup", LayerPhysical, false, 0, 1.4},
	{CauseRRCConnectionFailure, "RRC_CONNECTION_FAILURE", "Radio resource control connection failure", LayerNetwork, false, 0, 4.0},
}

// NumCauseIndexes is the number of defined cause codes: CauseNone and
// every registry entry. CauseIndex gives each a distinct index below it,
// so per-cause counters can be arrays.
const NumCauseIndexes = len(registry) + 1

// The defined codes sit in two runs, [0, causeLowEnd) and
// [causeHighBase, causeHighBase+causeHighSpan); causeSlots has one entry
// per code in either run.
const (
	causeLowEnd   = 1013
	causeHighBase = 65521
	causeHighSpan = 30
)

func causeSlot(c FailCause) int {
	switch {
	case c >= 0 && c < causeLowEnd:
		return int(c)
	case c >= causeHighBase && c < causeHighBase+causeHighSpan:
		return causeLowEnd + int(c-causeHighBase)
	}
	return -1
}

// causeSlots holds each registry code's position in registry + 1, and 0
// for every other code. It is read-only after init.
var causeSlots = func() (slots [causeLowEnd + causeHighSpan]uint8) {
	for i, info := range registry {
		s := causeSlot(info.Cause)
		if s <= 0 || slots[s] != 0 {
			panic("telephony: registry code " + info.Name + " is CauseNone, repeated, or outside the index table")
		}
		slots[s] = uint8(i + 1)
	}
	return slots
}()

// CauseIndex returns c's index in [0, NumCauseIndexes), or false when c is
// not a defined code. CauseNone is index 0 and registry[i] is index i+1.
func CauseIndex(c FailCause) (int, bool) {
	if c == CauseNone {
		return 0, true
	}
	s := causeSlot(c)
	if s < 0 || causeSlots[s] == 0 {
		return 0, false
	}
	return int(causeSlots[s]), true
}

// IndexedCause is the inverse of CauseIndex.
func IndexedCause(i int) FailCause {
	if i == 0 {
		return CauseNone
	}
	return registry[i-1].Cause
}

// Info returns registry metadata for a cause. Unknown causes report
// LayerUnknown and are not false positives.
func Info(c FailCause) CauseInfo {
	if i, ok := CauseIndex(c); ok && i > 0 {
		return registry[i-1]
	}
	return CauseInfo{Cause: c, Name: "UNKNOWN", Description: "unknown data fail cause", Layer: LayerUnknown}
}

func (c FailCause) String() string { return Info(c).Name }

// IsFalsePositive reports whether the cause indicates a rational,
// non-failure event that the monitoring service must filter out.
func (c FailCause) IsFalsePositive() bool { return Info(c).FalsePositive }

// AllCauses returns all registered causes sorted by code.
func AllCauses() []CauseInfo {
	out := append([]CauseInfo(nil), registry[:]...)
	sort.Slice(out, func(i, j int) bool { return out[i].Cause < out[j].Cause })
	return out
}

// Table2Causes returns the paper's Table 2 top-10 causes in descending
// share order: a calibration accessor the tests check the registry with.
func Table2Causes() []CauseInfo {
	var out []CauseInfo
	for _, info := range registry {
		if info.Table2Share > 0 {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table2Share > out[j].Table2Share })
	return out
}

// GeneratorWeights returns parallel slices of true causes and sampling
// weights calibrated so Table 2 causes carry their published share and the
// remaining probability mass (53.3%) spreads over the other true causes
// proportionally to GenWeight.
func GeneratorWeights() ([]FailCause, []float64) {
	var causes []FailCause
	var weights []float64
	var table2 float64
	var genTotal float64
	for _, info := range registry {
		if info.FalsePositive {
			continue
		}
		if info.Table2Share > 0 {
			table2 += info.Table2Share
		} else {
			genTotal += info.GenWeight
		}
	}
	rest := 100 - table2
	for _, info := range registry {
		if info.FalsePositive {
			continue
		}
		causes = append(causes, info.Cause)
		if info.Table2Share > 0 {
			weights = append(weights, info.Table2Share)
		} else {
			weights = append(weights, rest*info.GenWeight/genTotal)
		}
	}
	return causes, weights
}
