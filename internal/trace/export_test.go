package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/failure"
)

// legacyJSONEvent is the retired reflective JSONL shape, kept here as the
// byte-for-byte oracle for the append-based encoder in export.go.
type legacyJSONEvent struct {
	DeviceID   uint64  `json:"device_id"`
	ModelID    int     `json:"model_id"`
	Android    int     `json:"android"`
	FiveG      bool    `json:"five_g"`
	Kind       string  `json:"kind"`
	ISP        string  `json:"isp"`
	Cell       string  `json:"cell"`
	Region     string  `json:"region"`
	DenseBS    bool    `json:"dense_bs"`
	RAT        string  `json:"rat"`
	Level      int     `json:"level"`
	Cause      string  `json:"cause"`
	StartS     float64 `json:"start_s"`
	DurationS  float64 `json:"duration_s"`
	ResolvedBy string  `json:"resolved_by,omitempty"`
	Ops        int     `json:"ops_executed,omitempty"`
	AutoFixS   float64 `json:"auto_fix_s,omitempty"`
	Transition *struct {
		FromRAT   string `json:"from_rat"`
		FromLevel int    `json:"from_level"`
		ToRAT     string `json:"to_rat"`
		ToLevel   int    `json:"to_level"`
	} `json:"transition,omitempty"`
}

// legacyWriteJSONL is the old implementation verbatim: per-event struct
// through a reflective json.Encoder.
func legacyWriteJSONL(d *Dataset, buf *bytes.Buffer) error {
	enc := json.NewEncoder(buf)
	var werr error
	d.Each(func(e *failure.Event) {
		if werr != nil {
			return
		}
		je := legacyJSONEvent{
			DeviceID: e.DeviceID, ModelID: int(e.ModelID), Android: int(e.AndroidVersion),
			FiveG: e.FiveGCapable, Kind: e.Kind.String(), ISP: e.ISP.String(),
			Cell: e.Cell.String(), Region: e.Region.String(), DenseBS: e.DenseBS,
			RAT: e.RAT.String(), Level: int(e.Level), Cause: e.Cause.String(),
			StartS: e.Start.Seconds(), DurationS: e.Duration.Seconds(),
			Ops: int(e.OpsExecuted), AutoFixS: e.AutoFixTime.Seconds(),
		}
		if e.ResolvedBy != 0 {
			je.ResolvedBy = e.ResolvedBy.String()
		}
		if tr := e.Transition; e.HasTransition {
			je.Transition = &struct {
				FromRAT   string `json:"from_rat"`
				FromLevel int    `json:"from_level"`
				ToRAT     string `json:"to_rat"`
				ToLevel   int    `json:"to_level"`
			}{tr.FromRAT.String(), int(tr.FromLevel), tr.ToRAT.String(), int(tr.ToLevel)}
		}
		werr = enc.Encode(je)
	})
	return werr
}

// TestJSONLGolden pins the append-based JSONL writer to the reflective
// encoder's output, byte for byte, over events exercising omitempty
// branches, transitions, and float edge cases (sub-microsecond seconds
// force the 'e' format with exponent cleanup).
func TestJSONLGolden(t *testing.T) {
	events := gnarlyEvents()
	// Float formatting edges: 1ns → 1e-9 ('e' format, stripped exponent
	// zero), and a large start exercising 'f' format precision.
	events[0].Start = 1 * time.Nanosecond
	events[0].Duration = 123 * time.Nanosecond
	events[3].AutoFixTime = 1 * time.Nanosecond
	events[4].Start = 2_000_000 * time.Hour
	events[5].Duration = 1500 * time.Nanosecond // 1.5e-6: just above the 'e' cutoff
	events[6].Duration = 999 * time.Nanosecond  // 9.99e-7: just below
	ds := FromEvents(events)

	var want bytes.Buffer
	if err := legacyWriteJSONL(ds, &want); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := ds.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		wl, gl := strings.Split(want.String(), "\n"), strings.Split(got.String(), "\n")
		for i := range wl {
			if i >= len(gl) || wl[i] != gl[i] {
				t.Fatalf("JSONL line %d diverges:\nwant %s\n got %s", i, wl[i], gl[i])
			}
		}
		t.Fatal("JSONL output differs in length")
	}
}

// TestJSONStringEscaping pins the string escaper against encoding/json
// for the hostile cases: quotes, control bytes, HTML characters, line
// separators, and invalid UTF-8.
func TestJSONStringEscaping(t *testing.T) {
	for _, s := range []string{
		"", "plain", `quote" and \ backslash`, "tab\tnewline\ncr\r",
		"ctrl\x00\x01\x1f", "<script>&amp;</script>",
		"line sep s", "bad\xffutf8", "emoji \U0001F4F6 ok",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(want, got) {
			t.Errorf("escape(%q):\nwant %s\n got %s", s, want, got)
		}
	}
}

// TestJSONLMatchesEncoderOnSamples double-checks with the standard
// sample fixture (CSV untouched; JSONL is the hot export).
func TestJSONLMatchesEncoderOnSamples(t *testing.T) {
	ds := FromEvents(sampleEvents(50))
	var want, got bytes.Buffer
	if err := legacyWriteJSONL(ds, &want); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("JSONL output differs from encoding/json oracle")
	}
	if !strings.Contains(got.String(), `"cell":"cell:0-0-0-0"`) {
		t.Error("expected cell field in output")
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(got.String(), "\n", 2)[0]), &first); err != nil {
		t.Fatalf("first line is not valid JSON: %v", err)
	}
	if _, ok := first["device_id"]; !ok {
		t.Error("first line missing device_id")
	}
}
