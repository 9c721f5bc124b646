package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/failure"
)

// TestJSONLGolden pins the JSONL bytes over events exercising omitempty
// branches, transitions, and float edge cases (sub-microsecond seconds
// force the 'e' format with exponent cleanup). Run
// `go test ./internal/trace -run JSONLGolden -update` to accept an
// intentional change of the export format.
func TestJSONLGolden(t *testing.T) {
	const path = "testdata/gnarly.jsonl"
	events := gnarlyEvents()
	// Float formatting edges: 1ns → 1e-9 ('e' format, stripped exponent
	// zero), and a large start exercising 'f' format precision.
	events[0].Start = 1 * time.Nanosecond
	events[0].Duration = 123 * time.Nanosecond
	events[3].AutoFixTime = 1 * time.Nanosecond
	events[4].Start = 2_000_000 * time.Hour
	events[5].Duration = 1500 * time.Nanosecond // 1.5e-6: just above the 'e' cutoff
	events[6].Duration = 999 * time.Nanosecond  // 9.99e-7: just below
	var got bytes.Buffer
	if err := exportEvents(NewJSONLWriter(&got), events); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
		for i := range wl {
			if i >= len(gl) || wl[i] != gl[i] {
				t.Fatalf("JSONL line %d diverges from %s:\nwant %s\n got %s", i, path, wl[i], gl[i])
			}
		}
		t.Fatalf("JSONL output differs in length from %s", path)
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

// TestJSONLMatchesEncoderOnSamples: over the standard sample fixture,
// the JSONL writer emits one line per event, in the order written, each a
// JSON object naming the event's device and cell.
func TestJSONLMatchesEncoderOnSamples(t *testing.T) {
	events := sampleEvents(50)
	var got bytes.Buffer
	if err := exportEvents(NewJSONLWriter(&got), events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("%d lines for %d events", len(lines), len(events))
	}
	for i, l := range lines {
		var je jsonEvent
		if err := json.Unmarshal([]byte(l), &je); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if e := events[i]; je.DeviceID != e.DeviceID || je.Cell != e.Cell.String() {
			t.Errorf("line %d: device %d cell %s, want %d %s", i, je.DeviceID, je.Cell, e.DeviceID, e.Cell)
		}
	}
}

// exportEvents writes events through w in order and flushes it.
func exportEvents(w *EventWriter, events []failure.Event) error {
	for i := range events {
		w.Write(&events[i])
	}
	return w.Flush()
}
