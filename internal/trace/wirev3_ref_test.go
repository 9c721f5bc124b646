package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// decodeBatchV3Reference is the v3 decoder written the plain way: a
// bounds-checked cursor with a method call and an error per field, and
// binary.Uvarint's byte loop for every multi-byte varint. It is the oracle
// of FuzzDecodeV3MatchesReference: the frames it accepts and the batches
// it returns define the format's validation rules, which decodeBatchV3
// must keep exactly.

// refCur is a bounds-checked cursor over a decoded payload.
type refCur struct {
	b   []byte
	off int
}

func (c *refCur) remaining() int { return len(c.b) - c.off }

func (c *refCur) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, errV3Malformed
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *refCur) uvarint() (uint64, error) {
	// Fast path: most fields (deltas, indexes, small counts) fit one byte.
	if c.off < len(c.b) {
		if b := c.b[c.off]; b < 0x80 {
			c.off++
			return uint64(b), nil
		}
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, errV3Malformed
	}
	c.off += n
	return v, nil
}

func (c *refCur) varint() (int64, error) {
	u, err := c.uvarint()
	return unzigzag(u), err
}

// decodeBatchV3Reference parses one raw v3 payload. Every count is
// bounded by the bytes actually present, so a corrupt frame can neither
// panic nor drive an allocation bomb, and every value must fit the field
// it lands in: a ModelID, AndroidVersion, APN, OpsExecuted, MCC, MNC, LAC,
// CID or whole-seconds Duration out of range, a bit that must be zero set
// (in a wide station byte, the packed byte or a transition), an
// arrives-here bit without a transition, and a transition naming an
// undefined RAT or signal level, are malformed, never truncated, as is a
// first event or station that claims the previous one's context or
// network. It allocates the batch and its events.
func decodeBatchV3Reference(payload []byte) (*Batch, error) {
	cur := refCur{b: payload}
	b := &Batch{}
	var err error
	if b.DeviceID, err = cur.uvarint(); err != nil {
		return nil, err
	}
	if b.Seq, err = cur.uvarint(); err != nil {
		return nil, err
	}

	nCells, err := cur.uvarint()
	if err != nil || nCells > uint64(cur.remaining()/v3MinCellBytes) {
		return nil, errV3Malformed
	}
	type station struct {
		cell   telephony.CellIdentity
		region geo.Region
		rat    telephony.RAT
		dense  bool
	}
	cells := make([]station, 0, nCells)
	for i := uint64(0); i < nCells; i++ {
		var c telephony.CellIdentity
		lacFlags, err := cur.uvarint()
		if err != nil || lacFlags >= 1<<34 {
			return nil, errV3Malformed
		}
		if lacFlags&v3CellSamePLMN != 0 {
			if i == 0 {
				return nil, errV3Malformed
			}
			c.MCC, c.MNC = cells[i-1].cell.MCC, cells[i-1].cell.MNC
		} else {
			mcc, err := cur.uvarint()
			if err != nil || mcc > 0xFFFF {
				return nil, errV3Malformed
			}
			mnc, err := cur.uvarint()
			if err != nil || mnc > 0xFFFF {
				return nil, errV3Malformed
			}
			c.MCC, c.MNC = uint16(mcc), uint16(mnc)
		}
		cid, err := cur.uvarint()
		if err != nil || cid > 0xFFFFFFFF {
			return nil, errV3Malformed
		}
		c.LAC, c.CID, c.CDMA = uint32(lacFlags>>2), uint32(cid), lacFlags&v3CellCDMA != 0
		sb, err := cur.byte()
		if err != nil {
			return nil, err
		}
		st := station{cell: c, region: geo.Region(sb & 7), rat: telephony.RAT(sb >> 3 & 7), dense: sb&v3CellDense != 0}
		if sb&v3CellWide != 0 {
			if sb&0x3F != 0 {
				return nil, errV3Malformed
			}
			region, err := cur.byte()
			if err != nil {
				return nil, err
			}
			rat, err := cur.byte()
			if err != nil {
				return nil, err
			}
			st.region, st.rat = geo.Region(region), telephony.RAT(rat)
		}
		cells = append(cells, st)
	}

	nEvents, err := cur.uvarint()
	if err != nil || nEvents > uint64(cur.remaining()/v3MinEventBytes) {
		return nil, errV3Malformed
	}
	if nEvents == 0 {
		if cur.remaining() != 0 {
			return nil, errV3Malformed
		}
		return b, nil
	}
	events := make([]failure.Event, nEvents)
	for i := range events {
		e := &events[i]
		head, err := cur.byte()
		if err != nil {
			return nil, err
		}
		if head&v3EvSame != 0 {
			if i == 0 {
				return nil, errV3Malformed
			}
			prev := &events[i-1]
			e.DeviceID, e.ModelID, e.AndroidVersion, e.ISP = prev.DeviceID, prev.ModelID, prev.AndroidVersion, prev.ISP
			e.APN, e.FiveGCapable = prev.APN, prev.FiveGCapable
		} else {
			prevDev := b.DeviceID
			if i > 0 {
				prevDev = events[i-1].DeviceID
			}
			dd, err := cur.varint()
			if err != nil {
				return nil, err
			}
			e.DeviceID = prevDev + uint64(dd)
			model, err := cur.varint()
			if err != nil || model < 0 || model > math.MaxUint16 {
				return nil, errV3Malformed
			}
			e.ModelID = uint16(model)
			av, err := cur.varint()
			if err != nil || av < 0 || av > math.MaxUint8 {
				return nil, errV3Malformed
			}
			e.AndroidVersion = uint8(av)
			isp, err := cur.byte()
			if err != nil {
				return nil, err
			}
			e.ISP = simnet.ISPID(isp)
			apn5G, err := cur.uvarint()
			if err != nil || apn5G >= 1<<9 {
				return nil, errV3Malformed
			}
			e.APN, e.FiveGCapable = telephony.APN(apn5G>>1), apn5G&1 == 1
		}
		ci, err := cur.uvarint()
		if err != nil || ci >= uint64(len(cells)) {
			return nil, errV3Malformed
		}
		st := cells[ci]
		e.Cell, e.Region, e.RAT, e.DenseBS = st.cell, st.region, st.rat, st.dense
		hasCause := true
		if head&v3EvWide == 0 {
			v, err := cur.byte()
			if err != nil {
				return nil, err
			}
			if v >= 1<<7 {
				return nil, errV3Malformed
			}
			e.Kind = failure.Kind(v & 7)
			e.Level = telephony.SignalLevel(v >> 3 & 7)
			hasCause = v&v3PackCause != 0
		} else {
			kind, err := cur.byte()
			if err != nil {
				return nil, err
			}
			level, err := cur.byte()
			if err != nil {
				return nil, err
			}
			e.Kind, e.Level = failure.Kind(kind), telephony.SignalLevel(level)
		}
		if hasCause {
			cause, err := cur.varint()
			if err != nil {
				return nil, err
			}
			e.Cause = telephony.FailCause(cause)
		}
		if head&v3EvSame != 0 {
			step, err := cur.uvarint()
			if err != nil {
				return nil, err
			}
			e.Start = events[i-1].Start + time.Duration(step)
		} else {
			start, err := cur.varint()
			if err != nil {
				return nil, err
			}
			e.Start = time.Duration(start)
		}
		if head&v3EvSeconds != 0 {
			secs, err := cur.uvarint()
			if err != nil || secs == 0 || secs > math.MaxInt64/uint64(time.Second) {
				return nil, errV3Malformed
			}
			e.Duration = time.Duration(secs) * time.Second
		} else {
			dur, err := cur.varint()
			if err != nil {
				return nil, err
			}
			e.Duration = time.Duration(dur)
		}
		if head&v3EvResolved != 0 {
			rb, err := cur.byte()
			if err != nil {
				return nil, err
			}
			e.ResolvedBy = android.ResolvedBy(rb)
		}
		if head&v3EvOps != 0 {
			ops, err := cur.varint()
			if err != nil || ops < 0 || ops > math.MaxUint8 {
				return nil, errV3Malformed
			}
			e.OpsExecuted = uint8(ops)
		}
		if head&v3EvAutoFix != 0 {
			af, err := cur.varint()
			if err != nil {
				return nil, err
			}
			e.AutoFixTime = time.Duration(af)
		}
		if head&v3EvArrive != 0 && head&v3EvTransition == 0 {
			return nil, errV3Malformed
		}
		if head&v3EvTransition != 0 {
			var tr failure.TransitionInfo
			if head&v3EvArrive != 0 {
				from, err := cur.byte()
				if err != nil {
					return nil, err
				}
				if from >= 1<<6 {
					return nil, errV3Malformed
				}
				tr = failure.TransitionInfo{FromRAT: telephony.RAT(from & 7), ToRAT: e.RAT, FromLevel: telephony.SignalLevel(from >> 3), ToLevel: e.Level}
			} else {
				lo, err := cur.byte()
				if err != nil {
					return nil, err
				}
				hi, err := cur.byte()
				if err != nil {
					return nil, err
				}
				v := uint16(lo) | uint16(hi)<<8
				if v >= 1<<12 {
					return nil, errV3Malformed
				}
				tr = failure.TransitionInfo{
					FromRAT: telephony.RAT(v & 7), ToRAT: telephony.RAT(v >> 3 & 7),
					FromLevel: telephony.SignalLevel(v >> 6 & 7), ToLevel: telephony.SignalLevel(v >> 9 & 7),
				}
			}
			if refUndefinedTransition(&tr) {
				return nil, errV3Malformed
			}
			e.HasTransition, e.Transition = true, tr
		}
	}
	if cur.remaining() != 0 {
		return nil, errV3Malformed
	}
	b.Events = events
	return b, nil
}

// FuzzDecodeV3MatchesReference: for any payload the decoder returns the
// batch the reference decoder returns, or both reject it; and framed with
// flags 0 or 0x01, ReadFrameRaw accepts it iff readFrameReference does.
func FuzzDecodeV3MatchesReference(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "v3_gnarly.frame"))
	if err != nil {
		f.Fatal(err)
	}
	empty, err := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, frame := range append([][]byte{golden, empty, nonCanonicalFrame(), phoneFrame(f), manyTablesFrame(f)}, layoutFrames(f)...) {
		f.Add(frame[v3HeaderLen:])
	}
	for _, r := range outOfRangeFrames() {
		f.Add(r.frame[v3HeaderLen:])
	}
	f.Add([]byte{0, 0, 0, 4, 0x1f, 0x8b, 8, 0})
	f.Add([]byte{0xA2, 0, 0, 0, 4, 0x1f, 0x8b, 8, 0})
	for _, p := range varintEdgePayloads() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		want, wantErr := decodeBatchV3Reference(payload)
		var got Batch
		err := decodeBatchV3(payload, &got)
		if (err != nil) != (wantErr != nil) || (err == nil && !reflect.DeepEqual(&got, want)) {
			t.Fatalf("decoder returned %+v, %v; the reference %+v, %v", got, err, want, wantErr)
		}
		if err != nil && !reflect.DeepEqual(got, Batch{}) {
			t.Fatalf("a rejected payload wrote %+v into the batch", got)
		}
		if err != nil && !errors.Is(err, errV3Malformed) {
			t.Fatalf("rejected with %v, not errV3Malformed", err)
		}
		for _, flags := range []byte{0, 0x01} {
			frame := append(binary.BigEndian.AppendUint32([]byte{versionV3, flags}, uint32(len(payload))), payload...)
			want, wantErr := readFrameReference(frame)
			var got Batch
			_, err := ReadFrameRaw(bufio.NewReader(bytes.NewReader(frame)), nil, &got)
			if (err != nil) != (wantErr != nil) || (err == nil && !reflect.DeepEqual(&got, want)) {
				t.Fatalf("flags 0x%02x: ReadFrameRaw returned %+v, %v; the reference %+v, %v", flags, got, err, want, wantErr)
			}
		}
	})
}

// refUndefinedTransition is the reference codec's own test of a
// transition: a RAT past 5G or a signal level past 5.
func refUndefinedTransition(tr *failure.TransitionInfo) bool {
	return tr.FromRAT > telephony.RAT5G || tr.ToRAT > telephony.RAT5G || tr.FromLevel > telephony.Level5 || tr.ToLevel > telephony.Level5
}

// readFrameReference reads one whole frame the plain way: tag 0xA6, flags
// 0, a payload length in (0, maxBatchWire] that the frame holds exactly,
// and the payload through decodeBatchV3Reference.
func readFrameReference(frame []byte) (*Batch, error) {
	if len(frame) < v3HeaderLen || frame[0] != versionV3 || frame[1] != 0 {
		return nil, errV3Malformed
	}
	if n := binary.BigEndian.Uint32(frame[2:]); n == 0 || n > maxBatchWire || int(n) != len(frame)-v3HeaderLen {
		return nil, errV3Malformed
	}
	return decodeBatchV3Reference(frame[v3HeaderLen:])
}

// paddedUvarint encodes v in exactly n bytes, n between v's shortest
// encoding and 10: the high groups of a padded varint are zero.
func paddedUvarint(v uint64, n int) []byte {
	out := make([]byte, 0, n)
	for i := 0; i < n-1; i++ {
		out = append(out, byte(v)|0x80)
		v >>= 7
	}
	return append(out, byte(v))
}

// varintEdgePayloads are one-event payloads whose varints sit where the
// word-at-a-time decoder changes course: padded, 9- and 10-byte,
// overflowing and 11-byte encodings of the event's Start, and a Duration
// varint that ends 0 to 7 bytes before the end of the payload (the
// AutoFixTime varint after it takes up the slack).
func varintEdgePayloads() [][]byte {
	dur := binary.AppendUvarint(nil, zigzag(int64(42*time.Second)))
	var out [][]byte
	for n := 1; n <= 10; n++ {
		out = append(out, oneEventPayload(paddedUvarint(zigzag(int64(time.Hour))&(1<<(7*n)-1), n), dur, nil))
		out = append(out, oneEventPayload(paddedUvarint(3, n), dur, nil))
	}
	out = append(out,
		oneEventPayload(binary.AppendUvarint(nil, math.MaxUint64), dur, nil),
		oneEventPayload(append(bytes.Repeat([]byte{0xFF}, 9), 2), dur, nil),
		oneEventPayload(append(bytes.Repeat([]byte{0x80}, 10), 0), dur, nil))
	for slack := 0; slack <= 7; slack++ {
		var af []byte
		if slack > 0 {
			af = paddedUvarint(zigzag(int64(time.Second))&(1<<(7*slack)-1), slack)
		}
		out = append(out, oneEventPayload(binary.AppendUvarint(nil, zigzag(int64(time.Hour))), dur, af))
	}
	// Eight events of two 10-byte varints each, counted as many as their
	// bytes allow at the shortest event. The events past the eighth would
	// read nothing but the decoder's zero padding.
	over := oneEventPayload(paddedUvarint(1, 10), paddedUvarint(2, 10), nil)
	head, ev := over[:oneEventHeader], over[oneEventHeader:]
	head[len(head)-1] = byte(8 * len(ev) / v3MinEventBytes)
	for i := 0; i < 8; i++ {
		head = append(head, ev...)
	}
	return append(out, head)
}

// oneEventHeader is the length of everything in oneEventPayload in front
// of its record: the frame header, the cell table and the event count.
const oneEventHeader = 9

// oneEventPayload is a payload of one stall event whose Start,
// Duration and AutoFixTime are the given varint bytes; a nil autofix
// leaves the field out.
func oneEventPayload(start, dur, autofix []byte) []byte {
	p := []byte{5, 1}                                                    // DeviceID, Seq
	p = append(p, 1, 0, 0, 0, 0, stationByte(0, telephony.RAT4G, false)) // one all-zero 4G station: LAC and flags, MCC, MNC, CID, station byte
	p = append(p, 1)                                                     // one event
	head := byte(0)
	if autofix != nil {
		head = v3EvAutoFix
	}
	p = append(p, head)
	p = append(p, 0, 2, 20, 1, 0, 0)                      // device delta, model, android version, isp, APN and 5G, station index
	p = append(p, packedByte(failure.DataStall, 3, true)) // kind, level, a cause
	p = append(p, 6)                                      // cause
	p = append(p, start...)
	p = append(p, dur...)
	return append(p, autofix...)
}

// appendBatchV3Reference is the v3 encoder written the plain way:
// binary.AppendUvarint for every varint, and a map keyed on the whole
// station for the cell table. It is the oracle of
// FuzzEncodeV3MatchesReference: every frame AppendBatchV3 and an
// uploader's seal write must be the bytes it writes, and they must refuse
// the batches it refuses.
func appendBatchV3Reference(dst []byte, b *Batch) ([]byte, error) {
	type station struct {
		cell        telephony.CellIdentity
		region, rat uint8
		dense       bool
	}
	var cells []station
	cellIdx := make(map[station]int)
	var ev []byte
	for i := range b.Events {
		e := &b.Events[i]
		var head byte
		if e.Duration > 0 && e.Duration%time.Second == 0 {
			head |= v3EvSeconds
		}
		if e.ResolvedBy != 0 {
			head |= v3EvResolved
		}
		if e.OpsExecuted != 0 {
			head |= v3EvOps
		}
		if e.AutoFixTime != 0 {
			head |= v3EvAutoFix
		}
		arrives := e.HasTransition && e.Transition.ToRAT == e.RAT && e.Transition.ToLevel == e.Level
		if e.HasTransition {
			head |= v3EvTransition
		}
		if arrives {
			head |= v3EvArrive
		}
		st := station{e.Cell, uint8(e.Region), uint8(e.RAT), e.DenseBS}
		ci, ok := cellIdx[st]
		if !ok {
			ci = len(cells)
			cells = append(cells, st)
			cellIdx[st] = ci
		}
		wide := e.Kind >= 1<<3 || e.Level >= 1<<3
		if wide {
			head |= v3EvWide
		}
		prevDev := b.DeviceID
		if i > 0 {
			prev := &b.Events[i-1]
			prevDev = prev.DeviceID
			if e.DeviceID == prev.DeviceID && e.ModelID == prev.ModelID && e.AndroidVersion == prev.AndroidVersion && e.ISP == prev.ISP &&
				e.APN == prev.APN && e.FiveGCapable == prev.FiveGCapable && e.Start >= prev.Start {
				head |= v3EvSame
			}
		}
		ev = append(ev, head)
		if head&v3EvSame == 0 {
			ev = binary.AppendUvarint(ev, zigzag(int64(e.DeviceID-prevDev)))
			ev = binary.AppendUvarint(ev, zigzag(int64(e.ModelID)))
			ev = binary.AppendUvarint(ev, zigzag(int64(e.AndroidVersion)))
			ev = append(ev, byte(e.ISP))
			apn5G := uint64(e.APN) << 1
			if e.FiveGCapable {
				apn5G |= 1
			}
			ev = binary.AppendUvarint(ev, apn5G)
		}
		ev = binary.AppendUvarint(ev, uint64(ci))
		if wide {
			ev = append(ev, byte(e.Kind), byte(e.Level))
			ev = binary.AppendUvarint(ev, zigzag(int64(e.Cause)))
		} else {
			v := byte(e.Kind) | byte(e.Level)<<3
			if e.Cause != 0 {
				v |= v3PackCause
			}
			ev = append(ev, v)
			if e.Cause != 0 {
				ev = binary.AppendUvarint(ev, zigzag(int64(e.Cause)))
			}
		}
		if head&v3EvSame != 0 {
			ev = binary.AppendUvarint(ev, uint64(e.Start)-uint64(b.Events[i-1].Start))
		} else {
			ev = binary.AppendUvarint(ev, zigzag(int64(e.Start)))
		}
		if head&v3EvSeconds != 0 {
			ev = binary.AppendUvarint(ev, uint64(e.Duration/time.Second))
		} else {
			ev = binary.AppendUvarint(ev, zigzag(int64(e.Duration)))
		}
		if head&v3EvResolved != 0 {
			ev = append(ev, byte(e.ResolvedBy))
		}
		if head&v3EvOps != 0 {
			ev = binary.AppendUvarint(ev, zigzag(int64(e.OpsExecuted)))
		}
		if head&v3EvAutoFix != 0 {
			ev = binary.AppendUvarint(ev, zigzag(int64(e.AutoFixTime)))
		}
		if e.HasTransition {
			tr := e.Transition
			if refUndefinedTransition(&tr) {
				return dst, fmt.Errorf("trace: event %d of the batch has an undefined transition", i)
			}
			if arrives {
				ev = append(ev, byte(tr.FromRAT)|byte(tr.FromLevel)<<3)
			} else {
				ev = binary.LittleEndian.AppendUint16(ev, uint16(tr.FromRAT)|uint16(tr.ToRAT)<<3|uint16(tr.FromLevel)<<6|uint16(tr.ToLevel)<<9)
			}
		}
	}
	h := binary.AppendUvarint(nil, b.DeviceID)
	h = binary.AppendUvarint(h, b.Seq)
	h = binary.AppendUvarint(h, uint64(len(cells)))
	for i, st := range cells {
		c := st.cell
		lacFlags := uint64(c.LAC) << 2
		if c.CDMA {
			lacFlags |= v3CellCDMA
		}
		samePLMN := i > 0 && c.MCC == cells[i-1].cell.MCC && c.MNC == cells[i-1].cell.MNC
		if samePLMN {
			lacFlags |= v3CellSamePLMN
		}
		h = binary.AppendUvarint(h, lacFlags)
		if !samePLMN {
			h = binary.AppendUvarint(h, uint64(c.MCC))
			h = binary.AppendUvarint(h, uint64(c.MNC))
		}
		h = binary.AppendUvarint(h, uint64(c.CID))
		var sb byte
		if st.dense {
			sb = v3CellDense
		}
		if st.region >= 1<<3 || st.rat >= 1<<3 {
			h = append(h, sb|v3CellWide, st.region, st.rat)
		} else {
			h = append(h, sb|st.region|st.rat<<3)
		}
	}
	h = binary.AppendUvarint(h, uint64(len(b.Events)))
	size := len(h) + len(ev)
	if size > maxBatchWire {
		return dst, fmt.Errorf("trace: batch payload %d bytes exceeds wire limit %d; split the batch", size, maxBatchWire)
	}
	dst = append(dst, versionV3, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(size))
	dst = append(dst, h...)
	return append(dst, ev...), nil
}

// encodeFuzzEvents draws n events of a batch of device's from seed, over a
// pool of up to 256 cells drawn to stress the encoder's station index:
// their LACs and CIDs take a few values in the low 16 bits and a few
// above, so cells that share a GlobalID are common, and so are CDMA and
// non-CDMA twins, and one cell under several Regions, RATs and DenseBS
// values. Every varint-coded field takes a zigzag value of a random width
// from 1 to 10 bytes: negative, near MaxInt64 and near MinInt64 included.
// An event keeps the previous one's context but for one field in four,
// and steps its Start forward from the previous one's in one event of
// two. A Duration is a whole number of seconds, of any sign, in one event
// of four, and an enum, the APN included, is now and then too wide for
// its 3 bits. A transition arrives at the event's own RAT and level in
// one of two; its fields are now and then any byte, most of them
// undefined: no encoder frames such an event.
func encodeFuzzEvents(seed int64, device uint64, n, nCells int) []failure.Event {
	rng := rand.New(rand.NewSource(seed))
	wide := func() uint64 {
		width := 1 + rng.Intn(10)
		lo := uint64(1) << (7 * (width - 1))
		if width == 1 {
			lo = 0
		}
		if width == 10 {
			return lo + rng.Uint64()>>1
		}
		return lo + uint64(rng.Int63n(int64(uint64(1)<<(7*width)-lo)))
	}
	signed := func() int64 { return unzigzag(wide()) }
	cells := make([]telephony.CellIdentity, 1+nCells%256)
	for i := range cells {
		cells[i] = telephony.CellIdentity{
			MCC:  uint16(460 + rng.Intn(2)),
			MNC:  uint16(rng.Intn(3)),
			LAC:  uint32(rng.Intn(4)) | uint32(rng.Intn(3))<<16,
			CID:  uint32(rng.Intn(8)) | uint32(rng.Intn(4))<<16,
			CDMA: rng.Intn(2) == 0,
		}
		if rng.Intn(8) == 0 {
			cells[i].LAC, cells[i].CID = rng.Uint32(), rng.Uint32()
		}
	}
	// enum draws one of an enum's n values, or in one draw of eight any
	// byte, mostly one past the packed field's 3 bits and past the enum.
	enum := func(n int) uint8 {
		if rng.Intn(8) == 0 {
			return uint8(rng.Intn(256))
		}
		return uint8(rng.Intn(n))
	}
	events := make([]failure.Event, n)
	dev, model, av, isp := device, uint16(0), uint8(0), simnet.ISPID(0)
	apn, fiveG := telephony.APN(0), false
	var start time.Duration
	for i := range events {
		// Each context field changes in one event of four, so runs of
		// same-context records are common, and so is a change of one field.
		if rng.Intn(4) == 0 {
			dev += uint64(signed())
		}
		if rng.Intn(4) == 0 {
			model = uint16(rng.Intn(1 << (2 * (1 + rng.Intn(8)))))
		}
		if rng.Intn(4) == 0 {
			av = uint8(rng.Intn(256))
		}
		if rng.Intn(4) == 0 {
			isp = simnet.ISPID(rng.Intn(3))
		}
		if rng.Intn(4) == 0 {
			apn = telephony.APN(enum(telephony.NumAPNs))
		}
		if rng.Intn(4) == 0 {
			fiveG = !fiveG
		}
		if rng.Intn(2) == 0 {
			start += time.Duration(wide() >> 1) // may wrap past MaxInt64: a backward step
		} else {
			start = time.Duration(signed())
		}
		dur := time.Duration(signed())
		if rng.Intn(4) == 0 {
			dur = time.Duration(int64(wide()>>1)/int64(time.Second)) * time.Second
			if rng.Intn(2) == 0 {
				dur = -dur
			}
		}
		e := failure.Event{
			Kind:           failure.Kind(enum(failure.NumKinds)),
			DeviceID:       dev,
			ModelID:        model,
			AndroidVersion: av,
			ISP:            isp,
			Cell:           cells[rng.Intn(len(cells))],
			Region:         geo.Region(enum(geo.NumRegions)),
			RAT:            telephony.RAT(enum(int(telephony.RAT5G) + 1)),
			Level:          telephony.SignalLevel(enum(telephony.NumSignalLevels)),
			APN:            apn,
			Cause:          telephony.FailCause(int32(signed())),
			Start:          start,
			Duration:       dur,
			FiveGCapable:   fiveG,
			DenseBS:        rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			e.ResolvedBy = android.ResolvedBy(1 + rng.Intn(3))
			e.OpsExecuted = uint8(rng.Intn(256))
			e.AutoFixTime = time.Duration(signed())
		}
		if rng.Intn(4) == 0 {
			e.HasTransition = true
			e.Transition = failure.TransitionInfo{
				FromRAT: telephony.RAT(enum(int(telephony.RAT5G) + 1)), ToRAT: telephony.RAT(enum(int(telephony.RAT5G) + 1)),
				FromLevel: telephony.SignalLevel(enum(telephony.NumSignalLevels)), ToLevel: telephony.SignalLevel(enum(telephony.NumSignalLevels)),
			}
			if rng.Intn(2) == 0 {
				e.Transition.ToRAT, e.Transition.ToLevel = e.RAT, e.Level
			}
		}
		events[i] = e
	}
	return events
}

// FuzzEncodeV3MatchesReference: for any batch encodeFuzzEvents draws,
// with the escape case escape names (if any) cut into it, AppendBatchV3
// refuses it iff the reference encoder does, for an undefined transition;
// without those events, AppendBatchV3 writes the reference encoder's
// bytes, and so does an uploader recording the events one at a time,
// sealed as two batches cut at any event.
func FuzzEncodeV3MatchesReference(f *testing.F) {
	f.Add(int64(1), uint64(7), uint16(16), uint16(3), uint8(0), uint8(255))       // a phone's frame
	f.Add(int64(2), uint64(1), uint16(512), uint16(60), uint8(12), uint8(255))    // a bulk frame past the first index
	f.Add(int64(3), uint64(0), uint16(1200), uint16(255), uint8(200), uint8(255)) // three doublings past it
	f.Add(int64(4), uint64(1<<63), uint16(1), uint16(0), uint8(1), uint8(255))
	f.Add(int64(5), uint64(9), uint16(40), uint16(2), uint8(3), uint8(255))
	cases := escapeCases()
	for i := range cases {
		f.Add(int64(6+i), uint64(9), uint16(i), uint16(2), uint8(i), uint8(i)) // each escape case
	}
	f.Fuzz(func(t *testing.T, seed int64, device uint64, nEvents, nCells uint16, cut, escape uint8) {
		events := encodeFuzzEvents(seed, device, int(nEvents%1500), int(nCells))
		if int(escape) < len(cases) {
			events = slices.Insert(events, int(cut)%(len(events)+1), cases[escape].events...)
		}
		_, err := AppendBatchV3(nil, &Batch{DeviceID: device, Seq: 1, Events: events})
		if _, refErr := appendBatchV3Reference(nil, &Batch{DeviceID: device, Seq: 1, Events: events}); (err != nil) != (refErr != nil) {
			t.Fatalf("AppendBatchV3 returned %v, the reference %v", err, refErr)
		}
		if err != nil {
			events = slices.DeleteFunc(events, func(e failure.Event) bool { return e.HasTransition && refUndefinedTransition(&e.Transition) })
		}
		same := func(what string, got []byte, survivors []failure.Event, seq uint64) {
			t.Helper()
			want, err := appendBatchV3Reference(nil, &Batch{DeviceID: device, Seq: seq, Events: survivors})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %d B, the reference writes %d B, and they differ at byte %d",
					what, len(got), len(want), mismatchAt(got, want))
			}
		}
		frame, err := AppendBatchV3(nil, &Batch{DeviceID: device, Seq: 1, Events: events})
		if err != nil {
			t.Fatal(err)
		}
		same("AppendBatchV3", frame, events, 1)
		if len(events) == 0 {
			return // an uploader never seals an empty batch
		}

		up := NewUploader("127.0.0.1:1", device)
		defer up.Close()
		split := int(cut) % len(events)
		for i, batch := range [][]failure.Event{events[:split], events[split:]} {
			if len(batch) == 0 {
				continue
			}
			for _, e := range batch {
				up.Record(e)
			}
			same(fmt.Sprintf("sealed batch %d", i), sealPending(t, up), batch, up.nextSeq)
		}
	})
}

// mismatchAt returns the first offset at which a and b differ.
func mismatchAt(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
