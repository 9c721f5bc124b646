package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/telephony"
)

// widestEvent is the event with the longest one-event frame: every varint
// at its widest, a wide station and a wide record, a transition that does
// not arrive at the event's RAT, and every optional field present.
func widestEvent() failure.Event {
	return failure.Event{
		Kind: failure.DataSetupError, DeviceID: math.MaxUint64, ModelID: math.MaxUint16, AndroidVersion: math.MaxUint8,
		Cell:   telephony.CellIdentity{MCC: math.MaxUint16, MNC: math.MaxUint16, LAC: math.MaxUint32, CID: math.MaxUint32, CDMA: true},
		Region: math.MaxUint8, RAT: math.MaxUint8, Level: math.MaxUint8, APN: math.MaxUint8,
		Cause: math.MinInt32, Start: math.MinInt64 + 1, Duration: math.MinInt64 + 1, AutoFixTime: math.MinInt64 + 1,
		ResolvedBy: android.ResolvedOp3, OpsExecuted: math.MaxUint8, FiveGCapable: true, DenseBS: true,
		HasTransition: true, Transition: failure.TransitionInfo{FromRAT: telephony.RAT5G, ToRAT: telephony.RAT5G, FromLevel: telephony.Level5, ToLevel: telephony.Level5},
	}
}

// TestEventDigestAllocatesNothing: the frame is encoded into a stack
// buffer with pooled encoder scratch and hashed with sha256.Sum256, for a
// typical event and for the widest one, whose frame would spill to the
// heap if it outgrew eventFrameCap.
func TestEventDigestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled encoders at random under -race")
	}
	typical, wide := sampleEvents(2)[1], widestEvent()
	for _, e := range []*failure.Event{&typical, &wide} {
		if got := testing.AllocsPerRun(100, func() { EventDigest(e) }); got != 0 {
			t.Errorf("EventDigest allocates %.0f times for %+v", got, *e)
		}
	}
}

// TestEventDigestCoversEveryWireField: one row per leaf field of
// failure.Event, each changing that field alone (a number by one, a bool
// flipped), and every row changes the digest, so a field added to the
// struct but not to the wire fails here. The one thing the wire drops, a
// transition without HasTransition, leaves the digest as it was.
func TestEventDigestCoversEveryWireField(t *testing.T) {
	base := widestEvent()
	want := EventDigest(&base)
	var rows func(typ reflect.Type, at []int)
	rows = func(typ reflect.Type, at []int) {
		for i := 0; i < typ.NumField(); i++ {
			idx := append(at[:len(at):len(at)], i)
			if typ.Field(i).Type.Kind() == reflect.Struct {
				rows(typ.Field(i).Type, idx)
				continue
			}
			e := base
			switch f := reflect.ValueOf(&e).Elem().FieldByIndex(idx); f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(f.Int() + 1)
			default:
				f.SetUint(f.Uint() - 1)
			}
			if EventDigest(&e) == want {
				t.Errorf("changing failure.Event field %v (%s) leaves the digest at %s", idx, typ.Field(i).Name, want)
			}
		}
	}
	rows(reflect.TypeOf(base), nil)

	e := sampleEvents(1)[0]
	d := EventDigest(&e)
	e.Transition.ToRAT = telephony.RAT5G
	if EventDigest(&e) != d {
		t.Error("a transition without HasTransition changes the digest, though no frame carries it")
	}
}

// FuzzEventDigestSurvivesTheWire: an event with every field from the
// fuzzer, shipped between two neighbours in a frame of any DeviceID and
// Seq, decodes to events with their originals' digests: the property the
// exactly-once audit (recorded digest == stored digest) rests on. The
// encoder frames every such event but one whose transition names an
// undefined RAT or level, and the decoder accepts every frame it writes.
func FuzzEventDigestSurvivesTheWire(f *testing.F) {
	for _, e := range append(sampleEvents(2), gnarlyEvents()[1], gnarlyEvents()[42], widestEvent()) {
		var raw bytes.Buffer
		binary.Write(&raw, binary.LittleEndian, &e)
		f.Add(e.DeviceID^1, uint64(7), raw.Bytes())
	}
	f.Fuzz(func(t *testing.T, batchDev, seq uint64, raw []byte) {
		sent := sampleEvents(3)
		pad := make([]byte, binary.Size(&sent[1]))
		if err := binary.Read(bytes.NewReader(append(raw[:len(raw):len(raw)], pad...)), binary.LittleEndian, &sent[1]); err != nil {
			t.Fatal(err)
		}
		frame, err := AppendBatchV3(nil, &Batch{DeviceID: batchDev, Seq: seq, Events: sent})
		if undefined := sent[1].HasTransition && refUndefinedTransition(&sent[1].Transition); undefined || err != nil {
			if !undefined || err == nil {
				t.Fatalf("an event with transition %+v (HasTransition %v) encodes with err %v", sent[1].Transition, sent[1].HasTransition, err)
			}
			return
		}
		var got Batch
		if _, err := ReadFrameRaw(bufio.NewReader(bytes.NewReader(frame)), nil, &got); err != nil {
			t.Fatalf("the decoder refuses a frame the encoder wrote: %v", err)
		}
		for i := range sent {
			if d, want := EventDigest(&got.Events[i]), EventDigest(&sent[i]); d != want {
				t.Fatalf("event %d decodes to digest %s, sent with %s:\n got %+v\nsent %+v", i, d, want, got.Events[i], sent[i])
			}
		}
	})
}

// BenchmarkEventDigest digests a typical event and the widest one in turn,
// after the encoder pool last encoded a one-event frame or a batch of 512
// cells, as an uploader's shard batch is while fleet.Run digests events.
func BenchmarkEventDigest(b *testing.B) {
	events := []failure.Event{sampleEvents(2)[1], widestEvent()}
	bulk := sampleEvents(512)
	for i := range bulk {
		bulk[i].Cell.CID = uint32(i)
	}
	for _, warm := range [][]failure.Event{events[:1], bulk} {
		b.Run("after-"+strconv.Itoa(len(warm))+"-events", func(b *testing.B) {
			AppendBatchV3(nil, &Batch{Events: warm})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				EventDigest(&events[i&1])
			}
		})
	}
}
