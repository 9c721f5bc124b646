package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// legacyEvent and legacyTransitionInfo are failure.Event and
// failure.TransitionInfo as they were declared while EventDigest hashed
// fmt's "%+v" of them (through PR 20), frozen here: field names, order and
// kinds are what every recorded digest was computed over. Never edit them
// to follow the live structs.
type legacyEvent struct {
	Kind failure.Kind

	DeviceID       uint64
	ModelID        int
	AndroidVersion int
	FiveGCapable   bool

	ISP     simnet.ISPID
	Cell    telephony.CellIdentity
	Region  geo.Region
	DenseBS bool
	RAT     telephony.RAT
	Level   telephony.SignalLevel
	APN     legacyAPN
	Cause   telephony.FailCause

	Start    time.Duration
	Duration time.Duration

	ResolvedBy  android.ResolvedBy
	OpsExecuted int
	AutoFixTime time.Duration

	Transition *legacyTransitionInfo
}

type legacyAPN string

type legacyTransitionInfo struct {
	FromRAT   telephony.RAT
	ToRAT     telephony.RAT
	FromLevel telephony.SignalLevel
	ToLevel   telephony.SignalLevel
}

// legacyPreimage is the body of the old EventDigest, writing to a buffer
// instead of a hash.
func legacyPreimage(e *failure.Event) []byte {
	ev := legacyEvent{
		Kind: e.Kind, DeviceID: e.DeviceID, ModelID: int(e.ModelID), AndroidVersion: int(e.AndroidVersion),
		FiveGCapable: e.FiveGCapable, ISP: e.ISP, Cell: e.Cell, Region: e.Region, DenseBS: e.DenseBS,
		RAT: e.RAT, Level: e.Level, APN: legacyAPN(e.APN.String()), Cause: e.Cause,
		Start: e.Start, Duration: e.Duration, ResolvedBy: e.ResolvedBy, OpsExecuted: int(e.OpsExecuted),
		AutoFixTime: e.AutoFixTime,
	}
	var h bytes.Buffer
	if e.HasTransition {
		t := legacyTransitionInfo(e.Transition)
		fmt.Fprintf(&h, "%+v|%+v", ev, t)
	} else {
		fmt.Fprintf(&h, "%+v|", ev)
	}
	return h.Bytes()
}

func checkPreimage(t *testing.T, e *failure.Event) {
	t.Helper()
	if got, want := appendEventPreimage(nil, e), legacyPreimage(e); !bytes.Equal(got, want) {
		t.Fatalf("pre-image differs from the legacy %%+v text:\n got %s\nwant %s", got, want)
	}
}

// widestEvent is the event with the longest pre-image.
func widestEvent() failure.Event {
	return failure.Event{
		Kind: failure.DataSetupError, DeviceID: math.MaxUint64, ModelID: math.MaxUint16, AndroidVersion: math.MaxUint8,
		Cell:   telephony.CellIdentity{MCC: math.MaxUint16, MNC: math.MaxUint16, LAC: math.MaxUint32, CID: math.MaxUint32, CDMA: true},
		Region: geo.TransportHub, RAT: telephony.RATUnknown, Level: math.MaxUint8, APN: telephony.APNDefault,
		Cause: telephony.CauseActivationRejectUnspec, Start: math.MinInt64 + 1, Duration: math.MinInt64 + 1, AutoFixTime: math.MinInt64 + 1,
		ResolvedBy: android.ResolvedOp3, OpsExecuted: math.MaxUint8, FiveGCapable: false, DenseBS: false,
		HasTransition: true, Transition: failure.TransitionInfo{FromLevel: math.MaxUint8, ToLevel: math.MaxUint8},
	}
}

// randomDuration spreads over every magnitude Duration.String has a unit
// for, both signs.
func randomDuration(r *rand.Rand) time.Duration {
	d := time.Duration(r.Uint64() >> uint(r.Intn(64)))
	if r.Intn(2) == 0 {
		d = -d
	}
	return d
}

// TestEventDigestMatchesLegacyPreimage: the hand-written pre-image is the
// old struct's %+v text byte for byte, so every digest recorded before the
// struct was narrowed still verifies.
func TestEventDigestMatchesLegacyPreimage(t *testing.T) {
	base := sampleEvents(2)[1] // carries a transition
	vary := func(mut func(e *failure.Event)) {
		t.Helper()
		for _, has := range []bool{false, true} {
			e := base
			e.HasTransition = has
			mut(&e)
			checkPreimage(t, &e)
		}
	}
	for v := 0; v <= math.MaxUint8; v++ { // every defined value of each enum and every undefined one
		vary(func(e *failure.Event) { e.Kind = failure.Kind(v) })
		vary(func(e *failure.Event) { e.ISP = simnet.ISPID(v) })
		vary(func(e *failure.Event) { e.Region = geo.Region(v) })
		vary(func(e *failure.Event) { e.RAT = telephony.RAT(v) })
		vary(func(e *failure.Event) { e.Level = telephony.SignalLevel(v) })
		vary(func(e *failure.Event) { e.APN = telephony.APN(v) })
		vary(func(e *failure.Event) { e.ResolvedBy = android.ResolvedBy(v) })
		vary(func(e *failure.Event) { e.OpsExecuted, e.AndroidVersion = uint8(v), uint8(v) })
		vary(func(e *failure.Event) {
			e.Transition = failure.TransitionInfo{
				FromRAT: telephony.RAT(v), ToRAT: telephony.RAT(v >> 4),
				FromLevel: telephony.SignalLevel(v), ToLevel: telephony.SignalLevel(v >> 3),
			}
		})
	}
	causes := []telephony.FailCause{telephony.CauseNone, -1, math.MinInt32, math.MaxInt32}
	for _, info := range telephony.AllCauses() { // Table 2 and the rest of the registry
		causes = append(causes, info.Cause)
	}
	for _, c := range causes {
		vary(func(e *failure.Event) { e.Cause = c })
	}
	for _, d := range []time.Duration{
		0, 1, -1, 999, 1000, 1001, 1500, 999_999, 1_000_000, 1_050_000, 999_999_999,
		time.Second, 1_000_000_001, 1500 * time.Millisecond, 59 * time.Second, time.Minute,
		time.Hour, time.Hour + time.Nanosecond, 61 * time.Minute, -8 * time.Minute,
		2_000_000 * time.Hour, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	} {
		vary(func(e *failure.Event) { e.Start, e.Duration, e.AutoFixTime = d, -d, d/7 })
	}
	for _, id := range []uint64{0, 1, math.MaxUint64} {
		vary(func(e *failure.Event) { e.DeviceID, e.ModelID = id, uint16(id) })
	}
	for _, cdma := range []bool{false, true} {
		vary(func(e *failure.Event) {
			e.Cell = telephony.CellIdentity{MCC: 460, MNC: 3, LAC: 4301, CID: 190211, CDMA: cdma}
			e.FiveGCapable, e.DenseBS = cdma, !cdma
		})
	}
	wide := widestEvent()
	checkPreimage(t, &wide)
	if n := len(appendEventPreimage(nil, &wide)); n > preimageCap {
		t.Errorf("the widest pre-image is %d bytes, past EventDigest's %d-byte stack buffer", n, preimageCap)
	}
	for _, e := range gnarlyEvents() {
		checkPreimage(t, &e)
	}

	r := rand.New(rand.NewSource(21))
	for i := 0; i < 10_000; i++ {
		e := failure.Event{
			DeviceID: r.Uint64() >> uint(r.Intn(64)), Start: randomDuration(r), Duration: randomDuration(r), AutoFixTime: randomDuration(r),
			Cell:  telephony.CellIdentity{MCC: uint16(r.Uint32()), MNC: uint16(r.Uint32()), LAC: r.Uint32(), CID: r.Uint32(), CDMA: r.Intn(2) == 0},
			Cause: telephony.FailCause(r.Uint32()), ModelID: uint16(r.Uint32()),
			Kind: failure.Kind(r.Intn(failure.NumKinds + 1)), AndroidVersion: uint8(r.Uint32()), ISP: simnet.ISPID(r.Intn(simnet.NumISPs + 1)),
			Region: geo.Region(r.Intn(geo.NumRegions + 1)), RAT: telephony.RAT(r.Intn(6)), Level: telephony.SignalLevel(r.Intn(7)),
			APN: telephony.APN(r.Intn(telephony.NumAPNs)), ResolvedBy: android.ResolvedBy(r.Intn(8)), OpsExecuted: uint8(r.Uint32()),
			FiveGCapable: r.Intn(2) == 0, DenseBS: r.Intn(2) == 0, HasTransition: r.Intn(2) == 0,
			Transition: failure.TransitionInfo{
				FromRAT: telephony.RAT(r.Intn(6)), ToRAT: telephony.RAT(r.Intn(6)),
				FromLevel: telephony.SignalLevel(r.Intn(7)), ToLevel: telephony.SignalLevel(r.Intn(7)),
			},
		}
		if i%3 == 0 {
			e.Cause = causes[r.Intn(len(causes))]
		}
		checkPreimage(t, &e)
	}
}

// TestEventDigestAllocatesNothing: the pre-image is built in a stack
// buffer and hashed with sha256.Sum256, for a typical event and for the
// widest one.
func TestEventDigestAllocatesNothing(t *testing.T) {
	typical, wide := sampleEvents(2)[1], widestEvent()
	for _, e := range []*failure.Event{&typical, &wide} {
		if got := testing.AllocsPerRun(100, func() { EventDigest(e) }); got != 0 {
			t.Errorf("EventDigest allocates %.0f times for %+v", got, *e)
		}
	}
}

// FuzzEventDigestPreimage is TestEventDigestMatchesLegacyPreimage over
// whatever field values the fuzzer finds.
func FuzzEventDigestPreimage(f *testing.F) {
	f.Add(uint64(77), int64(time.Minute), int64(10*time.Second), int64(0), uint16(460), uint16(0), uint32(4301), uint32(190211),
		int32(telephony.CauseSignalLost), uint16(12), []byte{2, 10, 0, 0, 3, 4, 1, 1, 0, 0, 1, 1, 3, 4, 4, 0})
	f.Add(uint64(math.MaxUint64), int64(math.MinInt64), int64(-1), int64(999_999), uint16(65535), uint16(65535), uint32(math.MaxUint32), uint32(0),
		int32(-32), uint16(65535), bytes.Repeat([]byte{0xFF}, 16))
	f.Fuzz(func(t *testing.T, dev uint64, start, dur, autoFix int64, mcc, mnc uint16, lac, cid uint32, cause int32, model uint16, small []byte) {
		var s [16]byte
		copy(s[:], small)
		e := failure.Event{
			DeviceID: dev, Start: time.Duration(start), Duration: time.Duration(dur), AutoFixTime: time.Duration(autoFix),
			Cell:  telephony.CellIdentity{MCC: mcc, MNC: mnc, LAC: lac, CID: cid, CDMA: s[0]&1 != 0},
			Cause: telephony.FailCause(cause), ModelID: model,
			Kind: failure.Kind(s[1]), AndroidVersion: s[2], ISP: simnet.ISPID(s[3]), Region: geo.Region(s[4]),
			RAT: telephony.RAT(s[5]), Level: telephony.SignalLevel(s[6]), APN: telephony.APN(s[7]),
			ResolvedBy: android.ResolvedBy(s[8]), OpsExecuted: s[9],
			FiveGCapable: s[0]&2 != 0, DenseBS: s[0]&4 != 0, HasTransition: s[0]&8 != 0,
			Transition: failure.TransitionInfo{
				FromRAT: telephony.RAT(s[10]), ToRAT: telephony.RAT(s[11]),
				FromLevel: telephony.SignalLevel(s[12]), ToLevel: telephony.SignalLevel(s[13]),
			},
		}
		checkPreimage(t, &e)
	})
}
