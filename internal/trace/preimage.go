package trace

import (
	"strconv"
	"time"

	"repro/internal/failure"
	"repro/internal/telephony"
)

// preimageCap holds the longest pre-image there is (under 470 bytes: max
// DeviceID, a 4294967295-4294967295 cell, three most-negative durations, a
// transition), so EventDigest's buffer stays on its stack.
const preimageCap = 512

// appendEventPreimage appends the canonical text EventDigest hashes. The
// text is frozen: it is what fmt printed for "%+v|%+v" of the event
// (Transition nil) and its *TransitionInfo when Event was declared Kind,
// DeviceID, ModelID, ... Transition, enum fields printing through their
// String methods. Every digest ever recorded (run directories, the chaos
// goldens) is a hash of this text, so it follows neither the struct's
// field order nor its field types; TestEventDigestMatchesLegacyPreimage
// holds it to the old declaration byte for byte.
func appendEventPreimage(b []byte, e *failure.Event) []byte {
	b = append(b, "{Kind:"...)
	b = append(b, e.Kind.String()...)
	b = append(b, " DeviceID:"...)
	b = strconv.AppendUint(b, e.DeviceID, 10)
	b = append(b, " ModelID:"...)
	b = strconv.AppendUint(b, uint64(e.ModelID), 10)
	b = append(b, " AndroidVersion:"...)
	b = strconv.AppendUint(b, uint64(e.AndroidVersion), 10)
	b = append(b, " FiveGCapable:"...)
	b = strconv.AppendBool(b, e.FiveGCapable)
	b = append(b, " ISP:"...)
	b = append(b, e.ISP.String()...)
	if e.Cell.CDMA {
		b = append(b, " Cell:cdma:"...)
	} else {
		b = append(b, " Cell:cell:"...)
	}
	b = strconv.AppendUint(b, uint64(e.Cell.MCC), 10)
	b = append(b, '-')
	b = strconv.AppendUint(b, uint64(e.Cell.MNC), 10)
	b = append(b, '-')
	b = strconv.AppendUint(b, uint64(e.Cell.LAC), 10)
	b = append(b, '-')
	b = strconv.AppendUint(b, uint64(e.Cell.CID), 10)
	b = append(b, " Region:"...)
	b = append(b, e.Region.String()...)
	b = append(b, " DenseBS:"...)
	b = strconv.AppendBool(b, e.DenseBS)
	b = append(b, " RAT:"...)
	b = append(b, e.RAT.String()...)
	b = append(b, " Level:"...)
	b = appendLevel(b, e.Level)
	b = append(b, " APN:"...)
	b = append(b, e.APN.String()...)
	b = append(b, " Cause:"...)
	b = append(b, e.Cause.String()...)
	b = append(b, " Start:"...)
	b = appendDuration(b, e.Start)
	b = append(b, " Duration:"...)
	b = appendDuration(b, e.Duration)
	b = append(b, " ResolvedBy:"...)
	b = append(b, e.ResolvedBy.String()...)
	b = append(b, " OpsExecuted:"...)
	b = strconv.AppendUint(b, uint64(e.OpsExecuted), 10)
	b = append(b, " AutoFixTime:"...)
	b = appendDuration(b, e.AutoFixTime)
	b = append(b, " Transition:<nil>}|"...)
	if e.HasTransition {
		b = append(b, "{FromRAT:"...)
		b = append(b, e.Transition.FromRAT.String()...)
		b = append(b, " ToRAT:"...)
		b = append(b, e.Transition.ToRAT.String()...)
		b = append(b, " FromLevel:"...)
		b = appendLevel(b, e.Transition.FromLevel)
		b = append(b, " ToLevel:"...)
		b = appendLevel(b, e.Transition.ToLevel)
		b = append(b, '}')
	}
	return b
}

// appendLevel appends what telephony.SignalLevel.String returns.
func appendLevel(b []byte, l telephony.SignalLevel) []byte {
	return strconv.AppendUint(append(b, "level-"...), uint64(l), 10)
}

// appendDuration appends what time.Duration.String returns: 1h2m3.5s,
// sub-second values in the largest unit that keeps a leading digit.
func appendDuration(b []byte, d time.Duration) []byte {
	u := uint64(d)
	if d < 0 {
		b = append(b, '-')
		u = -u
	}
	switch {
	case u == 0:
		return append(b, "0s"...)
	case u < uint64(time.Microsecond):
		return append(strconv.AppendUint(b, u, 10), "ns"...)
	case u < uint64(time.Millisecond):
		return append(appendFraction(strconv.AppendUint(b, u/1e3, 10), u%1e3, 3), "µs"...)
	case u < uint64(time.Second):
		return append(appendFraction(strconv.AppendUint(b, u/1e6, 10), u%1e6, 6), "ms"...)
	}
	secs := u / 1e9
	if secs >= 3600 {
		b = append(strconv.AppendUint(b, secs/3600, 10), 'h')
	}
	if secs >= 60 {
		b = append(strconv.AppendUint(b, secs/60%60, 10), 'm')
	}
	b = strconv.AppendUint(b, secs%60, 10)
	return append(appendFraction(b, u%1e9, 9), 's')
}

// appendFraction appends "." and frac as a width-digit decimal fraction
// without its trailing zeros, or nothing when frac is zero.
func appendFraction(b []byte, frac uint64, width int) []byte {
	if frac == 0 {
		return b
	}
	var digits [9]byte
	for i := width - 1; i >= 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	for digits[width-1] == '0' {
		width--
	}
	return append(append(b, '.'), digits[:width]...)
}
