package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

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

// contextEvents is a same-context run whose context then changes one
// field at a time, each change followed by a record that repeats it, and
// whose Start steps back as well as forward.
func contextEvents() []failure.Event {
	e := sampleEvents(1)[0]
	e.DeviceID, e.ModelID, e.AndroidVersion, e.ISP = 9, 7, 10, 1
	var events []failure.Event
	step := func(change func(*failure.Event)) {
		change(&e)
		events = append(events, e)
		e.Start += 3 * time.Minute
		events = append(events, e)
	}
	for range 3 {
		step(func(e *failure.Event) { e.Start -= time.Hour })
	}
	step(func(e *failure.Event) { e.ModelID++ })
	step(func(e *failure.Event) { e.AndroidVersion++ })
	step(func(e *failure.Event) { e.ISP++ })
	step(func(e *failure.Event) { e.DeviceID++ })
	step(func(e *failure.Event) { e.DeviceID -= 2 })
	return events
}

// escapeCases are hand-built batches, one for each way a record leaves
// the shape most events take, and each must round-trip bit for bit: a
// cell seen under two Regions and RATs and both DenseBS values, Region and
// RAT bytes past 7, a backward Start within one device, an APN and a
// FiveGCapable that change within one device, whole-second and other
// Durations at their edges, and transitions that do or do not arrive at
// the event's own RAT and level.
func escapeCases() []struct {
	name   string
	events []failure.Event
} {
	// run is a run of one device's events a minute apart, each the one
	// before it after a change.
	run := func(changes ...func(*failure.Event)) []failure.Event {
		e := sampleEvents(1)[0]
		e.DeviceID, e.Cell = 9, telephony.CellIdentity{MCC: 460, MNC: 1, LAC: 4301, CID: 190211}
		events := []failure.Event{e}
		for _, change := range changes {
			e.Start += time.Minute
			change(&e)
			events = append(events, e)
		}
		return events
	}
	duration := func(d time.Duration) func(*failure.Event) { return func(e *failure.Event) { e.Duration = d } }
	transition := func(from, to telephony.RAT, fromLevel, toLevel telephony.SignalLevel) func(*failure.Event) {
		return func(e *failure.Event) {
			e.HasTransition = true
			e.Transition = failure.TransitionInfo{FromRAT: from, ToRAT: to, FromLevel: fromLevel, ToLevel: toLevel}
		}
	}
	return []struct {
		name   string
		events []failure.Event
	}{
		{"one cell under two stations", run(
			func(e *failure.Event) { e.Region, e.RAT = geo.Suburban, telephony.RAT5G },
			func(e *failure.Event) { e.DenseBS = true },
			func(e *failure.Event) { e.Region, e.RAT, e.DenseBS = 0, telephony.RAT4G, false },
		)},
		{"region and RAT bytes past 7", run(
			func(e *failure.Event) { e.Region = 7 },
			func(e *failure.Event) { e.Region = 8 },
			func(e *failure.Event) { e.Region, e.RAT = 0, 7 },
			func(e *failure.Event) { e.RAT = 200 },
			func(e *failure.Event) { e.Region, e.RAT, e.DenseBS = 255, 255, true },
		)},
		{"backward start", run(
			func(e *failure.Event) { e.Start -= time.Hour },
			func(e *failure.Event) {},
			func(e *failure.Event) { e.Start -= time.Minute },
			func(e *failure.Event) { e.Start = math.MinInt64 },
			func(e *failure.Event) { e.Start = math.MaxInt64 },
		)},
		{"APN and 5G within one device", run(
			func(e *failure.Event) { e.APN = telephony.APNIMS },
			func(e *failure.Event) { e.FiveGCapable = true },
			func(e *failure.Event) {},
			func(e *failure.Event) { e.APN = 255 },
			func(e *failure.Event) { e.APN, e.FiveGCapable = 0, false },
		)},
		{"whole seconds", run(
			duration(0), duration(time.Second), duration(-time.Second), duration(1500*time.Millisecond),
			duration(time.Duration(v3MaxSeconds)*time.Second), duration(math.MaxInt64), duration(math.MinInt64),
			duration(time.Nanosecond), duration(-time.Duration(v3MaxSeconds)*time.Second),
		)},
		{"transitions", run(
			transition(telephony.RAT3G, telephony.RAT4G, 2, 0),                 // arrives at the event's RAT and level
			transition(telephony.RAT3G, telephony.RAT5G, 2, 0),                 // another RAT
			transition(telephony.RAT3G, telephony.RAT4G, 2, 4),                 // another level
			transition(telephony.RAT5G, telephony.RAT4G, telephony.Level5, 0),  // arrives, from the widest
			func(e *failure.Event) { e.RAT, e.Level = telephony.RAT5G, 9 },     // a wide level: the 2-byte form
			func(e *failure.Event) { e.Transition.ToLevel = telephony.Level5 }, // another level: the 2-byte form
			func(e *failure.Event) { e.HasTransition, e.Transition, e.Level = false, failure.TransitionInfo{}, 0 },
		)},
	}
}

// enumEdgeEvents holds, for Kind, Region, RAT, Level and APN, an event at
// the top of the field's 3 packed bits, 7, which no enum defines, and one
// just past it, a wide record; and one event per APN the enum defines.
// Each event's Cause is zero or not by turns.
func enumEdgeEvents() []failure.Event {
	base := sampleEvents(1)[0]
	var events []failure.Event
	for _, set := range []func(e *failure.Event, v uint8){
		func(e *failure.Event, v uint8) { e.Kind = failure.Kind(v) },
		func(e *failure.Event, v uint8) { e.Region = geo.Region(v) },
		func(e *failure.Event, v uint8) { e.RAT = telephony.RAT(v) },
		func(e *failure.Event, v uint8) { e.Level = telephony.SignalLevel(v) },
		func(e *failure.Event, v uint8) { e.APN = telephony.APN(v) },
	} {
		for _, v := range []uint8{7, 8} {
			e := base
			set(&e, v)
			events = append(events, e)
		}
	}
	for a := range telephony.NumAPNs {
		e := base
		e.APN = telephony.APN(a)
		events = append(events, e)
	}
	for i := range events {
		if i%2 == 0 {
			events[i].Cause = 0
		}
	}
	return events
}

// layoutFrames are frames that reach every branch of the record layout: a
// same-context run with its context changing mid-frame, each packed enum
// just inside and just outside its 3 bits, each escape case, and a frame
// whose first record claims a previous record's context, which is
// malformed.
func layoutFrames(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	layouts := [][]failure.Event{contextEvents(), enumEdgeEvents()}
	for _, c := range escapeCases() {
		layouts = append(layouts, c.events)
	}
	for _, events := range layouts {
		frame, err := AppendBatchV3(nil, &Batch{DeviceID: 9, Seq: 2, Events: events})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame)
	}
	return append(out, sameFirstFrame())
}

// sameFirstFrame is a one-event frame whose record claims the previous
// record's context: there is none, so it is malformed.
func sameFirstFrame() []byte {
	p := oneEventPayload([]byte{6}, []byte{8}, nil)
	p[oneEventHeader] |= v3EvSame
	return append(binary.BigEndian.AppendUint32([]byte{versionV3, 0}, uint32(len(p))), p...)
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

// TestWireV3RoundTrip: every batch decodes to itself, from the bytes the
// reference encoder writes for it.
func TestWireV3RoundTrip(t *testing.T) {
	for _, tc := range append([]struct {
		name   string
		events []failure.Event
	}{
		{"sample", sampleEvents(10)},
		{"gnarly", gnarlyEvents()},
		{"single", sampleEvents(1)},
		{"contexts", contextEvents()},
		{"enum edges", enumEdgeEvents()},
		{"empty", nil},
	}, escapeCases()...) {
		t.Run(tc.name, func(t *testing.T) {
			in := &Batch{DeviceID: 42, Seq: 7, Events: tc.events}
			out := v3RoundTrip(t, in)
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
			}
			frame, err := AppendBatchV3(nil, in)
			want, refErr := appendBatchV3Reference(nil, in)
			if err != nil || refErr != nil || !bytes.Equal(frame, want) {
				t.Fatalf("AppendBatchV3 wrote %d B (%v), the reference %d B (%v)", len(frame), err, len(want), refErr)
			}
		})
	}
}

// TestWireV3Compression checks that every frame ships raw, whatever its
// size: flags 0, and the body is the payload decodeBatchV3 reads.
func TestWireV3Compression(t *testing.T) {
	for _, n := range []int{2, 2000} {
		in := &Batch{DeviceID: 1, Seq: 1, Events: sampleEvents(n)}
		frame, err := AppendBatchV3(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		var got Batch
		if frame[1] != 0 || decodeBatchV3(frame[v3HeaderLen:], &got) != nil || !reflect.DeepEqual(&got, in) {
			t.Fatalf("%d events: flags 0x%02x, or the body is not the batch's payload", n, frame[1])
		}
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
	corrupt("gzip flag", func(b []byte) { b[1] = 0x01 })
	corrupt("oversize length", func(b []byte) { b[2], b[3], b[4], b[5] = 0xFF, 0xFF, 0xFF, 0xFF })
	corrupt("zero length", func(b []byte) { b[2], b[3], b[4], b[5] = 0, 0, 0, 0 })
	corrupt("garbled body", func(b []byte) {
		for i := 6; i < len(b); i++ {
			b[i] ^= 0xA5
		}
	})

	// Payload corruptions: build a tiny frame, then poke at payload fields
	// directly.
	raw, err := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 1, Events: sampleEvents(2)})
	if err != nil {
		t.Fatal(err)
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
	// A first record cannot repeat a context no record before it set.
	if _, _, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(sameFirstFrame()))); !errors.Is(err, errV3Malformed) {
		t.Errorf("a first record that claims the same context: err %v, want errV3Malformed", err)
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

// TestCellIndexInternsInFirstUseOrder: a frame's cell table lists each
// station once, in order of first use, on either side of the index
// doubling, and keeps apart cells that share a GlobalID and one cell
// under two Regions, RATs or DenseBS values; a reset empties the index by
// a new gen alone, clearing its slots only when gen wraps; and a warm
// builder interns a frame of more stations than a fresh index holds
// without allocating.
func TestCellIndexInternsInFirstUseOrder(t *testing.T) {
	enc := v3EncPool.New().(*v3Enc)
	event := func(st *v3Station) *failure.Event {
		return &failure.Event{Cell: st.cell, Region: st.region, RAT: st.rat, DenseBS: st.dense}
	}
	frame := func(stations ...v3Station) {
		enc.reset(0)
		for i := 0; i < 2*len(stations); i++ {
			enc.appendEvent(event(&stations[i%len(stations)]))
		}
	}
	numbered := func(n int) []v3Station {
		stations := make([]v3Station, n)
		for i := range stations {
			stations[i].cell.CID = uint32(i)
		}
		return stations
	}
	cell := telephony.CellIdentity{MCC: 460, LAC: 7, CID: 9}
	twins := []v3Station{
		{cell: cell},
		{cell: telephony.CellIdentity{MCC: 460, LAC: 7 | 1<<16, CID: 9}},
		{cell: telephony.CellIdentity{MCC: 460, LAC: 7, CID: 9 | 1<<16}},
		{cell: telephony.CellIdentity{MCC: 460, LAC: 7, CID: 9, CDMA: true}},
		{cell: cell, region: geo.Suburban},
		{cell: cell, rat: telephony.RAT5G},
		{cell: cell, dense: true},
		{cell: cell, region: 255, rat: 255, dense: true},
	}
	for _, stations := range [][]v3Station{numbered(3 * v3CellSlots), numbered(v3CellSlots/2 - 1), twins} {
		frame(stations...)
		keys := make([]stationKey, len(stations))
		for i := range stations {
			keys[i] = keyOf(event(&stations[i]))
		}
		if !slices.Equal(enc.cells, keys) {
			t.Fatalf("%d stations: the table lists %v", len(stations), enc.cells)
		}
	}
	slots, gen := len(enc.slots), enc.gen
	enc.reset(0)
	if len(enc.slots) != slots || enc.gen != gen+1 || len(enc.cells) != 0 {
		t.Fatalf("reset left %d slots at gen %d and %d stations; want %d slots at gen %d and none", len(enc.slots), enc.gen, len(enc.cells), slots, gen+1)
	}
	frame(twins...)
	enc.gen = math.MaxUint32
	enc.reset(0)
	if enc.gen != 1 || slices.ContainsFunc(enc.slots, func(s cellSlot) bool { return s.gen != 0 }) {
		t.Fatalf("a wrapped gen left gen %d and filled slots", enc.gen)
	}
	many := numbered(3 * v3CellSlots)
	if got := testing.AllocsPerRun(10, func() { frame(many...) }); got != 0 {
		t.Errorf("a warm builder interning %d stations allocates %v objects, want 0", len(many), got)
	}
}

// TestWireV3RejectsOutOfRangeValues: the widest values every narrowed
// field holds decode, an all-zero transition is still a transition in
// either form, and one step past any of them, or a bit the layout keeps
// zero, is a malformed frame, not a truncated value.
func TestWireV3RejectsOutOfRangeValues(t *testing.T) {
	widest := stallEvent(func(r *rawEvent) {
		r.model, r.av, r.ops, r.apn5G = math.MaxUint16, math.MaxUint8, math.MaxUint8, 2*math.MaxUint8+1
		r.station = binary.AppendUvarint(nil, math.MaxUint32<<2|v3CellCDMA)
		r.station = binary.AppendUvarint(r.station, math.MaxUint16)
		r.station = binary.AppendUvarint(r.station, math.MaxUint16)
		r.station = binary.AppendUvarint(r.station, math.MaxUint32)
		r.station = append(r.station, v3CellWide|v3CellDense, math.MaxUint8, math.MaxUint8)
		r.head |= v3EvSeconds
		r.dur = binary.AppendUvarint(nil, v3MaxSeconds)
		r.transition = binary.LittleEndian.AppendUint16(nil, packedTransition(telephony.RAT5G, telephony.RAT5G, telephony.Level5, telephony.Level5))
	})
	e := decodeFrame(t, widest.frame()).Events[0]
	if e.ModelID != math.MaxUint16 || e.AndroidVersion != math.MaxUint8 || e.OpsExecuted != math.MaxUint8 || e.APN != math.MaxUint8 || !e.FiveGCapable ||
		e.Cell != (telephony.CellIdentity{MCC: math.MaxUint16, MNC: math.MaxUint16, LAC: math.MaxUint32, CID: math.MaxUint32, CDMA: true}) ||
		e.Region != math.MaxUint8 || e.RAT != math.MaxUint8 || !e.DenseBS || e.Duration != time.Duration(v3MaxSeconds)*time.Second ||
		!e.HasTransition || e.Transition != (failure.TransitionInfo{FromRAT: telephony.RAT5G, ToRAT: telephony.RAT5G, FromLevel: 5, ToLevel: 5}) {
		t.Fatalf("widest in-range values decoded to %+v", e)
	}
	zero := func(r *rawEvent) { r.station, r.packed, r.transition = []byte{0, 0, 0, 0, 0}, 0, []byte{0, 0} }
	arrive := func(r *rawEvent) { r.head, r.transition = r.head|v3EvArrive, []byte{0} }
	for _, z := range []rawEvent{stallEvent(zero), stallEvent(zero, arrive)} {
		e = decodeFrame(t, z.frame()).Events[0]
		if !e.HasTransition || e.Transition != (failure.TransitionInfo{}) || e.Cell != (telephony.CellIdentity{}) {
			t.Fatalf("all-zero transition and cell decoded to %+v", e)
		}
	}
	for _, tc := range outOfRangeFrames() {
		if _, err := ReadFrameRaw(bufio.NewReader(bytes.NewReader(tc.frame)), nil, new(Batch)); !errors.Is(err, errV3Malformed) {
			t.Errorf("%s: err = %v, want errV3Malformed", tc.name, err)
		}
	}
}

// TestEncoderWritesOnlyWhatAReaderAccepts: an event of any APN byte
// round-trips, and one whose transition names an undefined RAT or signal
// level, in any of its four fields, arriving at the event's own RAT and
// level or not, is framed by no encoder: AppendBatchV3 appends nothing and
// an uploader's Flush seals nothing, both with an error that names the
// event, and the event's digest is the zero one.
func TestEncoderWritesOnlyWhatAReaderAccepts(t *testing.T) {
	for a := 0; a < 256; a++ {
		in := &Batch{DeviceID: 1, Seq: 1, Events: sampleEvents(3)}
		in.Events[2].APN = telephony.APN(a)
		if out := v3RoundTrip(t, in); !reflect.DeepEqual(in, out) {
			t.Fatalf("APN %d decoded to %d", a, out.Events[2].APN)
		}
	}
	for _, field := range []struct {
		name    string
		defined int
		set     func(*failure.TransitionInfo, uint8)
	}{
		{"FromRAT", int(telephony.RAT5G) + 1, func(tr *failure.TransitionInfo, v uint8) { tr.FromRAT = telephony.RAT(v) }},
		{"ToRAT", int(telephony.RAT5G) + 1, func(tr *failure.TransitionInfo, v uint8) { tr.ToRAT = telephony.RAT(v) }},
		{"FromLevel", telephony.NumSignalLevels, func(tr *failure.TransitionInfo, v uint8) { tr.FromLevel = telephony.SignalLevel(v) }},
		{"ToLevel", telephony.NumSignalLevels, func(tr *failure.TransitionInfo, v uint8) { tr.ToLevel = telephony.SignalLevel(v) }},
	} {
		for _, arrive := range []bool{false, true} {
			for v := field.defined; v < 256; v++ {
				events := sampleEvents(3)
				events[2].HasTransition = true
				field.set(&events[2].Transition, uint8(v))
				if arrive { // the same transition, arriving at the event's RAT and level
					events[2].RAT, events[2].Level = events[2].Transition.ToRAT, events[2].Transition.ToLevel
				}
				dst := []byte{0xEE}
				out, err := AppendBatchV3(dst, &Batch{DeviceID: 1, Seq: 1, Events: events})
				if err == nil || !strings.Contains(err.Error(), "event 2 ") || len(out) != 1 {
					t.Fatalf("%s %d (arriving %v): AppendBatchV3 appended %d B, err %v; want nothing and an error naming event 2", field.name, v, arrive, len(out)-1, err)
				}
				if d := EventDigest(&events[2]); d != (Digest{}) {
					t.Fatalf("%s %d: digest %s, want the zero digest", field.name, v, d)
				}
				up := NewUploader("", 1)
				up.SetWiFi(true)
				for _, e := range events {
					up.Record(e)
				}
				if err := up.Flush(); err == nil || !strings.Contains(err.Error(), "event 2 ") || len(up.sealed) != 0 || up.Pending() != 3 {
					t.Fatalf("%s %d: Flush returned %v with %d frames sealed and %d events pending; want an error naming event 2, none sealed and 3 pending",
						field.name, v, err, len(up.sealed), up.Pending())
				}
				up.Close()
			}
		}
	}
}

// TestReplyRoundTripAllocatesNothing pins the per-frame fixed buffers: an
// ack written and read back through reused reply buffers allocates nothing,
// and reading a frame into a reused buffer and a reused Batch allocates
// exactly one object, the decoded events (the header is read in place, not
// into an escaping array, and the cell table stays on the stack).
func TestReplyRoundTripAllocatesNothing(t *testing.T) {
	var wire bytes.Buffer
	wire.Grow(replyLen)
	var out, in replyBuf
	allocs := testing.AllocsPerRun(100, func() {
		wire.Reset()
		if err := writeReply(&wire, &out, batchAck, 42, 3*time.Second); err != nil {
			t.Fatal(err)
		}
		kind, seq, retry, err := readReply(&wire, &in)
		if err != nil || kind != batchAck || seq != 42 || retry != 3*time.Second {
			t.Fatalf("read back kind %#x seq %d retry %v err %v", kind, seq, retry, err)
		}
	})
	if allocs != 0 {
		t.Errorf("an ack round trip allocates %v, want 0", allocs)
	}

	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 7, Seq: 1, Events: gnarlyEvents()})
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(frame)
	br := bufio.NewReader(src)
	buf := make([]byte, 0, len(frame))
	var b Batch
	read := testing.AllocsPerRun(20, func() {
		src.Reset(frame)
		br.Reset(src)
		if _, err := ReadFrameRaw(br, buf, &b); err != nil || len(b.Events) != 64 {
			t.Fatalf("read %d events: %v", len(b.Events), err)
		}
	})
	if read != 1 {
		t.Errorf("ReadFrameRaw into a reused buffer and Batch allocates %v a frame, want 1: the events", read)
	}
}

// TestClaimedEventCountSizesNoSlice: a frame's event count is bounded only
// by its bytes, so a 600 KB frame may claim 100 000 events (7.2 MB of
// Events) whose first record is already malformed. The decoder's own
// events slice starts at v3EventsChunk events and grows only as records
// check out, so refusing that frame allocates about one chunk, not the
// count it claims.
func TestClaimedEventCountSizesNoSlice(t *testing.T) {
	const claimed = 100_000
	p := []byte{5, 1, 0} // DeviceID, Seq, no cells
	p = binary.AppendUvarint(p, claimed)
	p = append(p, make([]byte, claimed*v3MinEventBytes)...) // a first record naming a cell the empty table lacks
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeBatchV3(p, new(Batch))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errV3Malformed) {
		t.Fatalf("err = %v, want errV3Malformed", err)
	}
	chunk := uint64(v3EventsChunk * unsafe.Sizeof(failure.Event{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*chunk {
		t.Errorf("refusing a frame that claims %d events allocated %d B, want at most %d", claimed, got, 2*chunk)
	}
}

// TestUvarintCursorEdges: a varint of every length from 1 to 10 decodes
// to binary.Uvarint's value with 0 to 8 bytes after it, padded encodings
// included; a 10-byte varint whose last byte is past 1 and an 11-byte
// varint are rejected, and so is every truncation, alone and as the last
// field of a payload.
func TestUvarintCursorEdges(t *testing.T) {
	var cases [][]byte
	for n := 1; n <= binary.MaxVarintLen64; n++ {
		shortest := binary.AppendUvarint(nil, uint64(1)<<(7*(n-1)))
		if n == binary.MaxVarintLen64 {
			shortest = binary.AppendUvarint(nil, math.MaxUint64)
		}
		cases = append(cases, shortest, paddedUvarint(0, n), paddedUvarint(0x55, n))
	}
	for _, enc := range cases {
		want, n := binary.Uvarint(enc)
		if n != len(enc) {
			t.Fatalf("case % x: binary.Uvarint reads %d bytes", enc, n)
		}
		for slack := 0; slack <= 8; slack++ {
			b := append(append([]byte(nil), enc...), bytes.Repeat([]byte{0xFF}, slack)...)
			for name, read := range uvarintReaders {
				if v, next := read(b, 0); v != want || next != len(enc) {
					t.Errorf("%s: % x with %d bytes after it: %d ending at %d, want %d ending at %d", name, enc, slack, v, next, want, len(enc))
				}
			}
		}
		for cut := 1; cut < len(enc); cut++ {
			for name, read := range uvarintReaders {
				if _, next := read(enc[:cut], 0); next >= 0 {
					t.Errorf("%s: % x cut to %d bytes decoded", name, enc, cut)
				}
			}
		}
	}
	for _, bad := range [][]byte{
		append(bytes.Repeat([]byte{0xFF}, 9), 0x02),
		append(bytes.Repeat([]byte{0x80}, 9), 0x7F),
		append(bytes.Repeat([]byte{0x80}, 10), 0x00),
	} {
		for slack := 0; slack <= 8; slack++ {
			b := append(append([]byte(nil), bad...), bytes.Repeat([]byte{0}, slack)...)
			for name, read := range uvarintReaders {
				if _, next := read(b, 0); next >= 0 {
					t.Errorf("%s: % x with %d bytes after it decoded", name, bad, slack)
				}
			}
		}
	}

	// The same varints as an event's AutoFixTime, the payload's last field:
	// read whole they decode, and every cut is a malformed frame, however
	// near the decoder's zero-padded tail the cut falls.
	for _, enc := range cases {
		want, _ := binary.Uvarint(enc)
		p := oneEventPayload([]byte{6}, []byte{8}, enc)
		var b Batch
		err := decodeBatchV3(p, &b)
		if err != nil || b.Events[0].AutoFixTime != time.Duration(unzigzag(want)) {
			t.Fatalf("% x as the last field: %v", enc, err)
		}
		for cut := len(p) - len(enc) + 1; cut < len(p); cut++ {
			if err := decodeBatchV3(p[:cut], new(Batch)); !errors.Is(err, errV3Malformed) {
				t.Errorf("% x cut to %d of its bytes: err %v", enc, cut-(len(p)-len(enc)), err)
			}
		}
	}
}

// uvarintReaders are the decoder's two ways into a varint: the inlined
// one-byte test, and the word path the long fields take directly.
var uvarintReaders = map[string]func([]byte, int) (uint64, int){"uvarintAt": uvarintAt, "uvarintLong": uvarintLong}
