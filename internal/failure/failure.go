// Package failure defines the cellular failure event model of the study:
// the three dominant failure kinds (Data_Setup_Error, Out_of_Service,
// Data_Stall) plus the long tail of legacy service failures, the in-situ
// context recorded with each event (§2.2), and the false-positive classes
// the monitoring service filters out.
package failure

import (
	"time"

	"repro/internal/android"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// Kind is the failure category.
type Kind uint8

// Failure kinds. The first three cover >99% of collected events; the
// remainder relate to legacy short-message and voice services (§3.1).
const (
	DataSetupError Kind = iota
	OutOfService
	DataStall
	SMSSendFail
	VoiceFailure

	NumKinds = 5
)

func (k Kind) String() string {
	switch k {
	case DataSetupError:
		return "Data_Setup_Error"
	case OutOfService:
		return "Out_of_Service"
	case DataStall:
		return "Data_Stall"
	case SMSSendFail:
		return "SMS_Send_Fail"
	case VoiceFailure:
		return "Voice_Failure"
	default:
		return "Unknown"
	}
}

// TransitionInfo records the RAT transition that immediately preceded a
// failure, if any — the context behind Figure 17's per-transition failure
// increases.
type TransitionInfo struct {
	FromRAT   telephony.RAT
	ToRAT     telephony.RAT
	FromLevel telephony.SignalLevel
	ToLevel   telephony.SignalLevel
}

// Event is one captured cellular failure with the in-situ information
// Android-MOD records: RAT, RSS, APN, BS identity, protocol error code,
// and (for stalls) the recovery outcome.
//
// It is the unit every buffer, dataset and frame holds, so it is kept to
// 72 pointer-free bytes (TestEventLayout): fields run widest first, and
// each is as wide as the values it takes. DESIGN.md has the table.
type Event struct {
	DeviceID uint64

	// Timing. Start is virtual time since the measurement began.
	Start    time.Duration
	Duration time.Duration
	// AutoFixTime is the stall's natural self-recovery time, measured by
	// the Android-MOD probing component (Figure 10's distribution). Zero
	// for non-stall events or stalls fixed by an operation first.
	AutoFixTime time.Duration

	// Radio / BS context.
	Cell    telephony.CellIdentity
	Cause   telephony.FailCause
	ModelID uint16

	Kind           Kind
	AndroidVersion uint8 // 9 or 10
	ISP            simnet.ISPID
	Region         geo.Region
	RAT            telephony.RAT
	Level          telephony.SignalLevel
	APN            telephony.APN

	// Data_Stall recovery outcome.
	ResolvedBy  android.ResolvedBy
	OpsExecuted uint8

	FiveGCapable bool
	DenseBS      bool

	// Transition is the RAT transition the failure followed; it is
	// meaningful iff HasTransition, which is set when the failure occurred
	// within the post-transition observation window.
	HasTransition bool
	Transition    TransitionInfo
}

// FalsePositiveClass labels why a suspicious event was discarded (§2.2).
type FalsePositiveClass uint8

// False positive classes.
const (
	FPNone             FalsePositiveClass = iota
	FPVoiceCall                           // connection disruption by an incoming voice call
	FPBalance                             // service suspension due to insufficient account balance
	FPManualDisconnect                    // the user disconnected the network manually
	FPBSOverload                          // rational setup rejection by an overloaded BS
	FPSystemSide                          // probe: loopback ICMP timed out (firewall/proxy/driver)
	FPDNSOnly                             // probe: only DNS resolution is unavailable

	NumFalsePositiveClasses = 7
)

func (c FalsePositiveClass) String() string {
	switch c {
	case FPNone:
		return "none"
	case FPVoiceCall:
		return "incoming-voice-call"
	case FPBalance:
		return "insufficient-balance"
	case FPManualDisconnect:
		return "manual-disconnect"
	case FPBSOverload:
		return "bs-overload"
	case FPSystemSide:
		return "system-side"
	case FPDNSOnly:
		return "dns-unavailable"
	default:
		return "unknown"
	}
}

// ClassifySetupError inspects a Data_Setup_Error's protocol error code and
// reports the false-positive class, or FPNone for a true failure. This is
// the registry-driven filter of §2.2: 344 error codes were analyzed for
// correlation with false positives.
func ClassifySetupError(cause telephony.FailCause) FalsePositiveClass {
	if !cause.IsFalsePositive() {
		return FPNone
	}
	switch cause {
	case telephony.CauseVoiceCallPreemption, telephony.CauseTetheredCallActive:
		return FPVoiceCall
	case telephony.CauseBillingSuspension, telephony.CauseServiceOptionNotSubscribed:
		return FPBalance
	case telephony.CauseManualDetach, telephony.CauseRegularDeactivation, telephony.CauseRadioPowerOff:
		return FPManualDisconnect
	case telephony.CauseCongestion, telephony.CauseInsufficientResources:
		return FPBSOverload
	default:
		return FPBSOverload
	}
}

// IsDataFailure reports whether the kind is one of the three data
// connection failures the study focuses on.
func (k Kind) IsDataFailure() bool {
	return k == DataSetupError || k == OutOfService || k == DataStall
}
