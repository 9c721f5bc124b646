package telephony

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRATStringAndGeneration(t *testing.T) {
	cases := []struct {
		rat RAT
		s   string
		gen int
	}{
		{RAT2G, "2G", 2}, {RAT3G, "3G", 3}, {RAT4G, "4G", 4}, {RAT5G, "5G", 5},
		{RATUnknown, "unknown", 0}, {RAT(99), "unknown", 0},
	}
	for _, c := range cases {
		if c.rat.String() != c.s {
			t.Errorf("%v.String() = %q, want %q", uint8(c.rat), c.rat.String(), c.s)
		}
		if c.rat.Generation() != c.gen {
			t.Errorf("%v.Generation() = %d, want %d", c.rat, c.rat.Generation(), c.gen)
		}
	}
	if len(AllRATs) != 4 {
		t.Errorf("AllRATs has %d entries, want 4", len(AllRATs))
	}
}

func TestSignalLevelValid(t *testing.T) {
	for l := Level0; l <= Level5; l++ {
		if !l.Valid() {
			t.Errorf("level %d should be valid", l)
		}
	}
	if SignalLevel(6).Valid() {
		t.Error("level 6 should be invalid")
	}
	if Level3.String() != "level-3" {
		t.Errorf("String = %q", Level3.String())
	}
}

func TestCellIdentityGlobalIDUnique(t *testing.T) {
	a := CellIdentity{MCC: 460, MNC: 0, LAC: 4521, CID: 8811}
	b := CellIdentity{MCC: 460, MNC: 0, LAC: 4521, CID: 8812}
	c := a
	c.CDMA = true
	if a.GlobalID() == b.GlobalID() {
		t.Error("different cells share a GlobalID")
	}
	if a.GlobalID() == c.GlobalID() {
		t.Error("CDMA flag not reflected in GlobalID")
	}
	if a.String() == c.String() {
		t.Error("CDMA flag not reflected in String")
	}
}

func TestCellIdentityGlobalIDProperty(t *testing.T) {
	f := func(mcc, mnc uint16, lac, cid uint16, cdma bool) bool {
		a := CellIdentity{MCC: mcc, MNC: mnc, LAC: uint32(lac), CID: uint32(cid), CDMA: cdma}
		b := a
		return a.GlobalID() == b.GlobalID()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestServiceStateString(t *testing.T) {
	if StateInService.String() != "IN_SERVICE" || StateOutOfService.String() != "OUT_OF_SERVICE" {
		t.Error("bad service state strings")
	}
	if ServiceState(99).String() != "UNKNOWN" {
		t.Error("unknown state should stringify to UNKNOWN")
	}
}

func TestTable2CausesMatchPaper(t *testing.T) {
	top := Table2Causes()
	if len(top) != 10 {
		t.Fatalf("Table2Causes returned %d codes, want 10", len(top))
	}
	if top[0].Cause != CauseGPRSRegistrationFail || top[0].Table2Share != 12.8 {
		t.Errorf("top cause = %v (%.1f%%), want GPRS_REGISTRATION_FAIL 12.8%%", top[0].Name, top[0].Table2Share)
	}
	var total float64
	for i, info := range top {
		total += info.Table2Share
		if i > 0 && info.Table2Share > top[i-1].Table2Share {
			t.Error("Table2Causes not in descending share order")
		}
	}
	if math.Abs(total-46.7) > 0.01 {
		t.Errorf("Table 2 shares sum to %.2f%%, want 46.7%%", total)
	}
}

func TestTable2LayersSpanStack(t *testing.T) {
	// §3.2: causes cover physical (SIGNAL_LOST, IRAT_HANDOVER_FAILED),
	// link/MAC (PPP_TIMEOUT) and network (INVALID_EMM_STATE) layers.
	if Info(CauseSignalLost).Layer != LayerPhysical {
		t.Error("SIGNAL_LOST should be physical layer")
	}
	if Info(CausePPPTimeout).Layer != LayerLinkMAC {
		t.Error("PPP_TIMEOUT should be link/MAC layer")
	}
	if Info(CauseInvalidEMMState).Layer != LayerNetwork {
		t.Error("INVALID_EMM_STATE should be network layer")
	}
	seen := map[Layer]bool{}
	for _, info := range Table2Causes() {
		seen[info.Layer] = true
	}
	for _, l := range []Layer{LayerPhysical, LayerLinkMAC, LayerNetwork} {
		if !seen[l] {
			t.Errorf("Table 2 causes missing layer %v", l)
		}
	}
}

func TestFalsePositiveClassification(t *testing.T) {
	fps := []FailCause{
		CauseCongestion, CauseInsufficientResources, CauseVoiceCallPreemption,
		CauseBillingSuspension, CauseManualDetach, CauseRadioPowerOff,
	}
	for _, c := range fps {
		if !c.IsFalsePositive() {
			t.Errorf("%v should be a false positive", c)
		}
	}
	for _, info := range Table2Causes() {
		if info.Cause.IsFalsePositive() {
			t.Errorf("Table 2 cause %v must not be a false positive", info.Name)
		}
	}
}

func TestInfoUnknownCause(t *testing.T) {
	info := Info(FailCause(999999))
	if info.Name != "UNKNOWN" || info.FalsePositive || info.Layer != LayerUnknown {
		t.Errorf("unknown cause info = %+v", info)
	}
	if FailCause(999999).String() != "UNKNOWN" {
		t.Error("unknown cause should stringify to UNKNOWN")
	}
}

func TestCauseIndex(t *testing.T) {
	defined := []FailCause{CauseNone}
	for _, info := range AllCauses() {
		defined = append(defined, info.Cause)
	}
	if len(defined) != NumCauseIndexes {
		t.Fatalf("%d defined codes, NumCauseIndexes %d", len(defined), NumCauseIndexes)
	}
	seen := map[int]bool{}
	for _, c := range defined {
		i, ok := CauseIndex(c)
		if !ok || i < 0 || i >= NumCauseIndexes || seen[i] {
			t.Fatalf("CauseIndex(%d) = %d, %v (seen %v)", c, i, ok, seen[i])
		}
		seen[i] = true
		if IndexedCause(i) != c {
			t.Errorf("IndexedCause(%d) = %d, want %d", i, IndexedCause(i), c)
		}
	}
	for _, c := range []FailCause{-1, 1, 500, 1013, 65520, 65535, 65551, 999999} {
		if i, ok := CauseIndex(c); ok {
			t.Errorf("undefined code %d has index %d", c, i)
		}
	}
}

func TestAllCausesSortedAndUnique(t *testing.T) {
	all := AllCauses()
	if len(all) < 40 {
		t.Fatalf("registry has %d causes, want a substantial subset (>=40)", len(all))
	}
	seen := map[FailCause]bool{}
	for i, info := range all {
		if seen[info.Cause] {
			t.Errorf("duplicate cause %v", info.Cause)
		}
		seen[info.Cause] = true
		if i > 0 && all[i-1].Cause >= info.Cause {
			t.Error("AllCauses not strictly sorted")
		}
	}
}

func TestGeneratorWeights(t *testing.T) {
	causes, weights := GeneratorWeights()
	if len(causes) != len(weights) {
		t.Fatal("length mismatch")
	}
	var total float64
	shareOf := map[FailCause]float64{}
	for i, c := range causes {
		if c.IsFalsePositive() {
			t.Errorf("generator includes false positive %v", c)
		}
		if weights[i] <= 0 {
			t.Errorf("cause %v has non-positive weight %v", c, weights[i])
		}
		total += weights[i]
		shareOf[c] = weights[i]
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("weights sum to %v, want 100", total)
	}
	// Table-2 causes must carry exactly their published share.
	if math.Abs(shareOf[CauseGPRSRegistrationFail]-12.8) > 1e-9 {
		t.Errorf("GPRS_REGISTRATION_FAIL weight = %v, want 12.8", shareOf[CauseGPRSRegistrationFail])
	}
	if math.Abs(shareOf[CauseIRATHandoverFailed]-1.6) > 1e-9 {
		t.Errorf("IRAT_HANDOVER_FAILED weight = %v, want 1.6", shareOf[CauseIRATHandoverFailed])
	}
}

func TestAPNConstants(t *testing.T) {
	want := map[APN]string{APNNone: "", APNDefault: "default", APNIMS: "ims", APNMMS: "mms", APNSUPL: "supl", APN(NumAPNs): "unknown"}
	for a, name := range want {
		if a.String() != name {
			t.Errorf("APN(%d).String() = %q, want %q", a, a.String(), name)
		}
	}
}
