package failure

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/telephony"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		DataSetupError: "Data_Setup_Error",
		OutOfService:   "Out_of_Service",
		DataStall:      "Data_Stall",
		SMSSendFail:    "SMS_Send_Fail",
		VoiceFailure:   "Voice_Failure",
		Kind(99):       "Unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestClassifySetupErrorTrueFailures(t *testing.T) {
	for _, info := range telephony.Table2Causes() {
		if got := ClassifySetupError(info.Cause); got != FPNone {
			t.Errorf("Table-2 cause %v classified as %v, want FPNone", info.Name, got)
		}
	}
}

func TestClassifySetupErrorFalsePositives(t *testing.T) {
	cases := map[telephony.FailCause]FalsePositiveClass{
		telephony.CauseVoiceCallPreemption:        FPVoiceCall,
		telephony.CauseTetheredCallActive:         FPVoiceCall,
		telephony.CauseBillingSuspension:          FPBalance,
		telephony.CauseServiceOptionNotSubscribed: FPBalance,
		telephony.CauseManualDetach:               FPManualDisconnect,
		telephony.CauseRegularDeactivation:        FPManualDisconnect,
		telephony.CauseRadioPowerOff:              FPManualDisconnect,
		telephony.CauseCongestion:                 FPBSOverload,
		telephony.CauseInsufficientResources:      FPBSOverload,
	}
	for cause, want := range cases {
		if got := ClassifySetupError(cause); got != want {
			t.Errorf("ClassifySetupError(%v) = %v, want %v", cause, got, want)
		}
	}
}

func TestEveryRegisteredFalsePositiveHasAClass(t *testing.T) {
	for _, info := range telephony.AllCauses() {
		if got := ClassifySetupError(info.Cause); info.FalsePositive && got == FPNone {
			t.Errorf("false-positive cause %v classified FPNone", info.Name)
		}
	}
}

func TestFalsePositiveClassStrings(t *testing.T) {
	seen := map[string]bool{}
	for c := FalsePositiveClass(0); c < NumFalsePositiveClasses; c++ {
		s := c.String()
		if s == "unknown" || seen[s] {
			t.Errorf("class %d has bad or duplicate string %q", c, s)
		}
		seen[s] = true
	}
	if FalsePositiveClass(99).String() != "unknown" {
		t.Error("out-of-range class should be unknown")
	}
}

// TestEventLayout holds Event to what every buffer of them is sized by:
// at most 72 bytes, and nothing in it the garbage collector must follow
// (a pointer-free slice sits in a span the collector never scans).
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 72 {
		t.Errorf("Event is %d bytes, want <= 72", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v: Event must hold no pointers", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Event", reflect.TypeOf(Event{}))
}
