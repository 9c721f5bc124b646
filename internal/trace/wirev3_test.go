package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

var updateGolden = flag.Bool("update", false, "rewrite golden test fixtures")

// gnarlyEvents builds a batch exercising every optional field, extreme
// values, and repetitive context the v3 codec interns.
func gnarlyEvents() []failure.Event {
	cells := []telephony.CellIdentity{
		{MCC: 460, MNC: 0, LAC: 4301, CID: 190211},
		{MCC: 460, MNC: 1, LAC: 0xFFFFFFFF, CID: 0xFFFFFFFF, CDMA: true},
		{},
	}
	events := make([]failure.Event, 64)
	for i := range events {
		events[i] = failure.Event{
			Kind:           failure.Kind(i % failure.NumKinds),
			DeviceID:       uint64(i) * 1_000_003,
			ModelID:        uint16(i % 34),
			AndroidVersion: uint8(9 + i%2),
			FiveGCapable:   i%2 == 0,
			ISP:            simnet.ISPID(i % 3),
			Cell:           cells[i%len(cells)],
			Region:         geo.Region(i % 4),
			DenseBS:        i%3 == 0,
			RAT:            telephony.RAT(i % 4),
			Level:          telephony.SignalLevel(i % 6),
			APN:            telephony.APNDefault + telephony.APN(i%4),
			Cause:          telephony.FailCause(int32(i) - 32), // negative causes too
			Start:          time.Duration(i-8) * time.Minute,   // negative starts survive zigzag
			Duration:       time.Duration(i) * time.Second,
		}
		if i%4 == 1 {
			events[i].ResolvedBy = android.ResolvedBy(1 + i%3)
			events[i].OpsExecuted = uint8(i)
			events[i].AutoFixTime = time.Duration(i) * time.Millisecond
		}
		if i%5 == 2 {
			events[i].HasTransition = true
			events[i].Transition = failure.TransitionInfo{
				FromRAT: telephony.RAT(i % 4), ToRAT: telephony.RAT((i + 1) % 4),
				FromLevel: telephony.SignalLevel(i % 6), ToLevel: telephony.SignalLevel((i + 2) % 6),
			}
		}
	}
	events[0].DeviceID = 0
	events[1].DeviceID = ^uint64(0) // max device ID delta-codes from 0
	return events
}

func v3RoundTrip(t *testing.T, in *Batch) *Batch {
	t.Helper()
	frame, err := AppendBatchV3(nil, in)
	if err != nil {
		t.Fatalf("AppendBatchV3: %v", err)
	}
	out, wire, dialect, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatalf("ReadBatchAny: %v", err)
	}
	if dialect != DialectV3 {
		t.Fatalf("dialect = %v, want v3", dialect)
	}
	if wire != len(frame) {
		t.Fatalf("wire = %d, want %d", wire, len(frame))
	}
	return out
}

func TestWireV3RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []failure.Event
	}{
		{"sample", sampleEvents(10)},
		{"gnarly", gnarlyEvents()},
		{"single", sampleEvents(1)},
		{"empty", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := &Batch{DeviceID: 42, Seq: 7, Events: tc.events}
			out := v3RoundTrip(t, in)
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
			}
		})
	}
}

// TestWireV3Compression checks the per-frame compression flag: small
// batches ship raw, big repetitive ones gzip and actually shrink below
// their raw payload.
func TestWireV3Compression(t *testing.T) {
	small, err := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 1, Events: sampleEvents(2)})
	if err != nil {
		t.Fatal(err)
	}
	if small[1]&v3FlagGzip != 0 {
		t.Errorf("small batch compressed; want raw below %d bytes", v3CompressMin)
	}
	big := &Batch{DeviceID: 1, Seq: 1, Events: sampleEvents(2000)}
	frame, err := AppendBatchV3(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	if frame[1]&v3FlagGzip == 0 {
		t.Error("large batch not compressed")
	}
	zr, err := gzip.NewReader(bytes.NewReader(frame[6:]))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame)-6 >= len(payload) {
		t.Errorf("v3 body %d bytes >= raw payload %d bytes", len(frame)-6, len(payload))
	}
	if got := v3RoundTrip(t, big); !reflect.DeepEqual(big, got) {
		t.Fatal("compressed round trip mismatch")
	}
}

// TestWireV3CorruptRejected feeds the decoder truncations and targeted
// corruptions of a valid frame; every one must error without panicking,
// and io.EOF may only surface for the empty prefix.
func TestWireV3CorruptRejected(t *testing.T) {
	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 5, Seq: 2, Events: gnarlyEvents()})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(frame); cut += 7 {
		if _, _, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(frame[:cut]))); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(frame))
		}
	}
	corrupt := func(name string, mut func([]byte)) {
		c := append([]byte(nil), frame...)
		mut(c)
		if _, _, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(c))); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	corrupt("reserved frame flag", func(b []byte) { b[1] |= 0x80 })
	corrupt("oversize length", func(b []byte) { b[2], b[3], b[4], b[5] = 0xFF, 0xFF, 0xFF, 0xFF })
	corrupt("zero length", func(b []byte) { b[2], b[3], b[4], b[5] = 0, 0, 0, 0 })
	corrupt("garbled gzip body", func(b []byte) {
		for i := 6; i < len(b); i++ {
			b[i] ^= 0xA5
		}
	})

	// Raw (uncompressed) payload corruptions: build a tiny frame that skips
	// gzip, then poke at payload fields directly.
	raw, err := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 1, Events: sampleEvents(2)})
	if err != nil {
		t.Fatal(err)
	}
	if raw[1]&v3FlagGzip != 0 {
		t.Fatal("tiny frame unexpectedly compressed")
	}
	for i := 6; i < len(raw); i++ {
		c := append([]byte(nil), raw...)
		c[i] ^= 0xFF
		b, _, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(c)))
		// A flipped byte may still decode to *some* structurally valid
		// batch (it only touches values); it must never panic, and if it
		// errors the error must be non-nil — both checked implicitly.
		_ = b
		_ = err
	}
	// Trailing junk after the last event must be rejected.
	c := append([]byte(nil), raw...)
	c = append(c, 0x01)
	c[2], c[3], c[4], c[5] = byte((len(c)-6)>>24), byte((len(c)-6)>>16), byte((len(c)-6)>>8), byte(len(c)-6)
	if _, _, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(c))); err == nil {
		t.Error("trailing junk accepted")
	}
}

// TestWireV3GoldenFrame pins the format itself to committed bytes:
// segment files and spill WALs on disk are v3, and with one format there
// is no second encoder left to cross-check a silent drift against. Run
// `go test ./internal/trace -run WireV3GoldenFrame -update` to accept an
// intentional format change.
func TestWireV3GoldenFrame(t *testing.T) {
	const path = "testdata/v3_gnarly.frame"
	in := &Batch{DeviceID: 5, Seq: 2, Events: gnarlyEvents()}
	frame, err := AppendBatchV3(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(frame, golden) {
		t.Errorf("encoded frame drifted from %s (%d bytes, golden %d); if the format change is intentional, rerun with -update", path, len(frame), len(golden))
	}
	out, _, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(golden)))
	if err != nil {
		t.Fatalf("decode golden frame: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("golden frame decodes to a different batch:\n in: %+v\nout: %+v", in, out)
	}
}

// TestWireV3RejectsOutOfRangeValues: the widest values every narrowed
// field holds decode, an all-zero transition is still a transition, and
// one step past any of them is a malformed frame, not a truncated value.
func TestWireV3RejectsOutOfRangeValues(t *testing.T) {
	widest := oneEventFrame(math.MaxUint16, math.MaxUint8, math.MaxUint8, "supl",
		[4]byte{byte(telephony.RAT5G), byte(telephony.RAT5G), byte(telephony.Level5), byte(telephony.Level5)})
	e := decodeFrame(t, widest).Events[0]
	if e.ModelID != math.MaxUint16 || e.AndroidVersion != math.MaxUint8 || e.OpsExecuted != math.MaxUint8 || e.APN != telephony.APNSUPL ||
		!e.HasTransition || e.Transition != (failure.TransitionInfo{FromRAT: telephony.RAT5G, ToRAT: telephony.RAT5G, FromLevel: 5, ToLevel: 5}) {
		t.Fatalf("widest in-range values decoded to %+v", e)
	}
	e = decodeFrame(t, oneEventFrame(0, 0, 1, "", [4]byte{})).Events[0]
	if !e.HasTransition || e.Transition != (failure.TransitionInfo{}) || e.APN != telephony.APNNone {
		t.Fatalf("all-zero transition and empty APN decoded to %+v", e)
	}
	for _, tc := range outOfRangeFrames() {
		if _, _, err := ReadFrameRaw(bufio.NewReader(bytes.NewReader(tc.frame)), nil); !errors.Is(err, errV3Malformed) {
			t.Errorf("%s: err = %v, want errV3Malformed", tc.name, err)
		}
	}
}
