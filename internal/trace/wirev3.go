package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/android"
	"repro/internal/failure"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

// The upload wire format (v3): a hand-rolled binary batch encoding — one
// tagged frame per batch, answered by the 13-byte reply of wire.go,
// deduplicated per device by Seq.
//
//	frame   = versionV3 byte (0xA3) ++ flags byte (0) ++ uint32 BE payload len
//	          ++ payload
//	payload = uvarint DeviceID ++ uvarint Seq
//	          ++ uvarint #strings ++ { uvarint len ++ bytes }   (APN table)
//	          ++ uvarint #cells   ++ { cell record }            (BS table)
//	          ++ uvarint #events  ++ { event record }
//
// All multi-byte integers inside the payload are varints (zigzag for
// signed values); enum fields (Kind, ISP, Region, RAT, Level,
// ResolvedBy) are single bytes. The highly repetitive per-event context
// — the camped cell identity and the APN string — is interned in
// per-frame tables and referenced by index, so a thousand events camped
// on a handful of cells cost a varint each instead of 14 bytes. Optional
// fields (stall recovery outcome, transition info) sit behind a per-event
// flag bitmask.
//
// The encoding is the compression: there is no second, deflated body. A
// phone's frame of a few dozen events costs 26–33 B an event, and a frame
// is read as it lies on the wire or on disk, with no inflate in front of
// the decoder. The flags byte is always 0; a reader refuses any other
// value as malformed, so a frame an older encoder gzip'd is refused, never
// misread. Encode and decode scratch — buffers, intern tables — is
// recycled through sync.Pools. An uploader builds its pending batch in a
// pooled builder as events are recorded and seals it into its last acked
// frame's buffer, and the collector reuses its frame buffer and Batch
// header. The collector decodes a frame's events straight into the free
// tail of a block the dataset owns and publishes them there, so a
// steady-state upload allocates nothing end to end; the dataset cuts a
// new 73 728 B block every 1024 events. A frame that interns more than v3StackStrs APN names
// or v3StackCells cells also allocates that decode table.
//
// It is the only format: uploads, spill WALs and segment files all hold
// these frames, and a first byte other than 0xA3 is a malformed frame to
// every reader.
const (
	// versionV3 prefixes every v3 upload frame.
	versionV3 = 0xA3
	// v3MinEventBytes is the smallest possible encoded event (every varint
	// one byte, no optional fields) — the decoder's allocation bound.
	v3MinEventBytes = 14
	// v3MinCellBytes is the smallest possible cell-table record.
	v3MinCellBytes = 5
)

// Dialect names the wire format of a decoded frame: ReadBatchAny's third
// result.
type Dialect uint8

// DialectV3 is the binary format described above: 0xA3 frames, 13-byte
// ack/nack replies.
const DialectV3 Dialect = 3

// errV3Malformed wraps every structural decode failure, so callers can
// distinguish a corrupt frame from an I/O error.
var errV3Malformed = errors.New("trace: malformed v3 frame")

// errV3Flagged is the malformed frame whose flags byte is not 0: one an
// older encoder gzip'd, or any other bytes behind a 0xA3. A write torn
// short of a frame this encoder wrote cannot end in one, so a store
// replaying its tail refuses it rather than cut it as a torn write.
var errV3Flagged = fmt.Errorf("%w: non-zero flags byte", errV3Malformed)

// ---------------------------------------------------------------------------
// Pools. The frame builder and its buffers survive across batches; only
// decoded events escape.

// v3Enc builds one frame: events are encoded into the event section as
// they arrive (appendEvent), interning their APNs and cells as they go,
// and seal writes the header and tables in front of them. AppendBatchV3
// builds a whole batch at once through a pooled builder; an Uploader
// keeps one as its pending buffer, so Record encodes and Flush only
// seals.
type v3Enc struct {
	payload []byte // seal's header scratch
	events  []byte // the encoded event records, oldest first
	n       int    // events in the event section
	prev    uint64 // DeviceID of the last event (the batch's before the first)
	trimmed bool   // dropOldest left table entries no event may use
	// frame is an Uploader's spare frame buffer: its last acked frame,
	// emptied, which the next seal writes into.
	frame   []byte
	apns    []telephony.APN
	cells   []telephony.CellIdentity
	cellIdx map[telephony.CellIdentity]int
}

var v3EncPool = sync.Pool{New: func() any {
	return &v3Enc{cellIdx: make(map[telephony.CellIdentity]int, 64)}
}}

// reset empties the builder for a batch of device's, keeping its buffers.
func (enc *v3Enc) reset(device uint64) {
	enc.events = enc.events[:0]
	enc.n, enc.prev, enc.trimmed = 0, device, false
	enc.resetTables()
}

func (enc *v3Enc) resetTables() {
	enc.apns = enc.apns[:0]
	if len(enc.cellIdx) > 0 {
		clear(enc.cellIdx)
	}
	enc.cells = enc.cells[:0]
}

// scratchPool recycles frame buffers.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

func getScratch(n int) *[]byte {
	p := scratchPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, 0, n)
	}
	*p = (*p)[:0]
	return p
}

func putScratch(p *[]byte) {
	if cap(*p) > maxBatchWire {
		return // don't park a pathological allocation in the pool
	}
	scratchPool.Put(p)
}

// ---------------------------------------------------------------------------
// Encoding.

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// internAPN returns a's index in the frame's string table, which lists
// APN names in order of first use (a handful at most: a scan).
func (enc *v3Enc) internAPN(a telephony.APN) int {
	for i, have := range enc.apns {
		if have == a {
			return i
		}
	}
	enc.apns = append(enc.apns, a)
	return len(enc.apns) - 1
}

// cellScan is how many cells a frame interns by a scan before it indexes
// them in cellIdx. A frame of fewer cells, a phone's or a one-event
// digest's, never touches the map, so it never pays to clear one that a
// bulk batch grew: clearing a map costs its capacity, not its length.
const cellScan = 8

func (enc *v3Enc) internCell(c telephony.CellIdentity) int {
	if i, ok := enc.cellIdx[c]; ok {
		return i
	}
	i := len(enc.cells)
	enc.cells = append(enc.cells, c)
	enc.cellIdx[c] = i
	return i
}

// scanCell interns c while the table is short enough to scan, and
// indexes the table once it reaches cellScan cells.
func (enc *v3Enc) scanCell(c telephony.CellIdentity) int {
	for i, have := range enc.cells {
		if have == c {
			return i
		}
	}
	enc.cells = append(enc.cells, c)
	if len(enc.cells) == cellScan {
		for i, have := range enc.cells {
			enc.cellIdx[have] = i
		}
	}
	return len(enc.cells) - 1
}

// Per-event optional-field flags.
const (
	v3EvFiveG      = 1 << 0
	v3EvDenseBS    = 1 << 1
	v3EvResolved   = 1 << 2
	v3EvOps        = 1 << 3
	v3EvAutoFix    = 1 << 4
	v3EvTransition = 1 << 5
	v3EvKnownBits  = v3EvFiveG | v3EvDenseBS | v3EvResolved | v3EvOps | v3EvAutoFix | v3EvTransition
)

// appendEvent encodes one event at the end of the event section. Its
// DeviceID is coded as the delta from the previous event's (the batch
// DeviceID's for the first event), since a batch is usually one device's
// — or one shard's contiguous range of — events.
func (enc *v3Enc) appendEvent(e *failure.Event) {
	var flags byte
	if e.FiveGCapable {
		flags |= v3EvFiveG
	}
	if e.DenseBS {
		flags |= v3EvDenseBS
	}
	if e.ResolvedBy != 0 {
		flags |= v3EvResolved
	}
	if e.OpsExecuted != 0 {
		flags |= v3EvOps
	}
	if e.AutoFixTime != 0 {
		flags |= v3EvAutoFix
	}
	if e.HasTransition {
		flags |= v3EvTransition
	}
	b := append(enc.events, byte(e.Kind), flags)
	b = binary.AppendUvarint(b, zigzag(int64(e.DeviceID-enc.prev)))
	b = binary.AppendUvarint(b, zigzag(int64(e.ModelID)))
	b = binary.AppendUvarint(b, zigzag(int64(e.AndroidVersion)))
	b = append(b, byte(e.ISP))
	b = binary.AppendUvarint(b, uint64(enc.cellIndex(e.Cell)))
	b = append(b, byte(e.Region), byte(e.RAT), byte(e.Level))
	b = binary.AppendUvarint(b, uint64(enc.internAPN(e.APN)))
	b = binary.AppendUvarint(b, zigzag(int64(e.Cause)))
	b = binary.AppendUvarint(b, zigzag(int64(e.Start)))
	b = binary.AppendUvarint(b, zigzag(int64(e.Duration)))
	if flags&v3EvResolved != 0 {
		b = append(b, byte(e.ResolvedBy))
	}
	if flags&v3EvOps != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.OpsExecuted)))
	}
	if flags&v3EvAutoFix != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.AutoFixTime)))
	}
	if e.HasTransition {
		tr := e.Transition
		b = append(b, byte(tr.FromRAT), byte(tr.ToRAT), byte(tr.FromLevel), byte(tr.ToLevel))
	}
	enc.events = b
	enc.n++
	enc.prev = e.DeviceID
}

// cellIndex interns c by a scan while the table is short, and through
// cellIdx once it reaches cellScan cells.
func (enc *v3Enc) cellIndex(c telephony.CellIdentity) int {
	if len(enc.cells) < cellScan {
		return enc.scanCell(c)
	}
	return enc.internCell(c)
}

// AppendBatchV3 appends one complete v3 wire frame (tag, flags, length,
// payload) for b to dst and returns the extended slice: it builds the batch
// in a pooled builder and seals it, as an Uploader builds its pending
// batch event by event. The builder comes from a pool, so steady-state
// encoding does not allocate beyond dst's growth.
func AppendBatchV3(dst []byte, b *Batch) ([]byte, error) {
	enc := v3EncPool.Get().(*v3Enc)
	defer v3EncPool.Put(enc)
	enc.reset(b.DeviceID)
	for i := range b.Events {
		enc.appendEvent(&b.Events[i])
	}
	return enc.seal(dst, b.DeviceID, b.Seq)
}

// seal appends the frame of the built events to dst under the header
// (device, seq): the tables and the event count go in front of the event
// section. A trimmed batch's tables are rebuilt first, so the frame is
// always the one AppendBatchV3 writes for the same events.
// The events stay built; reset starts the next batch.
func (enc *v3Enc) seal(dst []byte, device, seq uint64) ([]byte, error) {
	if enc.trimmed {
		enc.reindex()
	}
	h := enc.payload[:0]
	h = binary.AppendUvarint(h, device)
	h = binary.AppendUvarint(h, seq)
	h = binary.AppendUvarint(h, uint64(len(enc.apns)))
	for _, a := range enc.apns {
		s := a.String()
		h = binary.AppendUvarint(h, uint64(len(s)))
		h = append(h, s...)
	}
	h = binary.AppendUvarint(h, uint64(len(enc.cells)))
	for _, c := range enc.cells {
		h = binary.AppendUvarint(h, uint64(c.MCC))
		h = binary.AppendUvarint(h, uint64(c.MNC))
		h = binary.AppendUvarint(h, uint64(c.LAC))
		h = binary.AppendUvarint(h, uint64(c.CID))
		if c.CDMA {
			h = append(h, 1)
		} else {
			h = append(h, 0)
		}
	}
	h = binary.AppendUvarint(h, uint64(enc.n))
	enc.payload = h
	size := len(h) + len(enc.events)
	if size > maxBatchWire {
		return dst, fmt.Errorf("trace: batch payload %d bytes exceeds wire limit %d; split the batch", size, maxBatchWire)
	}

	dst = slices.Grow(dst, v3HeaderLen+size)
	dst = append(dst, versionV3, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(size))
	dst = append(dst, h...)
	return append(dst, enc.events...), nil
}

// dropOldest removes the n oldest built events of a batch of device's.
// The survivors move down in one copy, and only the first one's DeviceID
// delta is re-coded, now from device. The tables keep entries that only
// dropped events used until the cell table holds more than twice as many
// cells as there are survivors, and then reindex rebuilds them, so a
// backlog trimmed event by event stays bounded by its survivors; seal
// rebuilds whatever is left stale.
func (enc *v3Enc) dropOldest(n int, device uint64) {
	if n >= enc.n {
		enc.reset(device)
		return
	}
	b := enc.events
	p, dev := 0, device
	for i := 0; i < n; i++ {
		d, _ := uvarintAt(b, p+2)
		dev += uint64(unzigzag(d))
		_, _, p = recordAt(b, p)
	}
	d, rest := uvarintAt(b, p+2)
	dev += uint64(unzigzag(d))
	var head [2 + binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(append(head[:0], b[p], b[p+1]), zigzag(int64(dev-device)))
	// The dropped records are at least v3MinEventBytes long, longer than
	// h, so the survivors move down, never up.
	m := copy(b[len(h):], b[rest:])
	copy(b, h)
	enc.events = b[:len(h)+m]
	enc.n -= n
	enc.trimmed = true
	if len(enc.cells) > 2*enc.n+cellScan {
		enc.reindex()
	}
}

// reindex rebuilds the tables from the built events alone, interning in
// appendEvent's order, and rewrites every record's cell and APN index to
// match: the event section and tables are then the ones appendEvent
// builds for the same events.
func (enc *v3Enc) reindex() {
	enc.trimmed = false
	cells := slices.Clone(enc.cells)
	apns := slices.Clone(enc.apns)
	enc.resetTables()
	src, out := enc.events, enc.payload[:0]
	for p := 0; p < len(src); {
		cell, apn, end := recordAt(src, p)
		c, cellEnd := uvarintAt(src, cell)
		a, apnEnd := uvarintAt(src, apn)
		out = append(out, src[p:cell]...)
		out = binary.AppendUvarint(out, uint64(enc.cellIndex(cells[c])))
		out = append(out, src[cellEnd:apn]...)
		out = binary.AppendUvarint(out, uint64(enc.internAPN(apns[a])))
		out = append(out, src[apnEnd:end]...)
		p = end
	}
	enc.events, enc.payload = out, src[:0]
}

// recordAt walks the event record appendEvent wrote at b[p:] and returns
// the offsets of its cell and APN indexes and of its end.
func recordAt(b []byte, p int) (cell, apn, end int) {
	flags := b[p+1]
	p = skipUvarint(b, p+2)        // DeviceID delta
	p = skipUvarint(b, p)          // ModelID
	cell = skipUvarint(b, p) + 1   // past AndroidVersion and ISP
	apn = skipUvarint(b, cell) + 3 // past Region, RAT and Level
	p = skipUvarint(b, apn)        // APN
	p = skipUvarint(b, p)          // Cause
	p = skipUvarint(b, p)          // Start
	p = skipUvarint(b, p)          // Duration
	if flags&v3EvResolved != 0 {
		p++
	}
	if flags&v3EvOps != 0 {
		p = skipUvarint(b, p)
	}
	if flags&v3EvAutoFix != 0 {
		p = skipUvarint(b, p)
	}
	if flags&v3EvTransition != 0 {
		p += 4
	}
	return cell, apn, p
}

// skipUvarint returns the offset just past the well-formed uvarint at
// b[p:].
func skipUvarint(b []byte, p int) int {
	for b[p] >= 0x80 {
		p++
	}
	return p + 1
}

// ---------------------------------------------------------------------------
// Decoding.

// uvarintAt decodes the uvarint at b[p:], p < len(b), and returns it with
// the offset just past it, or with -1 when the varint is truncated or
// overflows 64 bits. The one-byte case — most deltas, indexes and counts —
// is small enough to inline at every field.
func uvarintAt(b []byte, p int) (v uint64, next int) {
	v, next = uint64(b[p]), p+1
	if v >= 0x80 {
		v, next = uvarintLong(b, p)
	}
	return
}

// uvarintLong decodes the uvarint at b[p:] like uvarintAt, for a varint
// longer than one byte or a field that rarely is one byte long. A varint
// of at most 8 bytes with 8 bytes to read is decoded from one
// little-endian word: the lowest clear high bit marks its last byte, and
// three mask-and-shift steps pack its 7-bit groups. 9- and 10-byte
// varints, and one starting less than 8 bytes before the end of b, go
// through binary.Uvarint, whose accept and reject rules the word path
// shares (a varint that fits a word cannot overflow, and a padded one
// decodes to the same value).
func uvarintLong(b []byte, p int) (uint64, int) {
	if len(b)-p >= 8 {
		w := binary.LittleEndian.Uint64(b[p:])
		if stop := ^w & 0x8080808080808080; stop != 0 {
			w &= (stop ^ (stop - 1)) & 0x7f7f7f7f7f7f7f7f
			w = w&0x007f007f007f007f | w&0x7f007f007f007f00>>1
			w = w&0x00003fff00003fff | w&0x3fff00003fff0000>>2
			w = w&0x000000000fffffff | w&0x0fffffff00000000>>4
			return w, p + (bits.TrailingZeros64(stop)+1)>>3
		}
	}
	v, n := binary.Uvarint(b[p:])
	if n <= 0 {
		return 0, -1
	}
	return v, p + n
}

// v3MaxRecordBytes bounds every record the decoder reads at one offset:
// the longest possible event (every varint at binary.Uvarint's 10-byte
// limit, every optional field present) is longer than a cell record, a
// string-table length or the three varints of the frame header.
const v3MaxRecordBytes = 2 + 3*binary.MaxVarintLen64 + 1 + binary.MaxVarintLen64 + 3 +
	4*binary.MaxVarintLen64 + 1 + 2*binary.MaxVarintLen64 + 4

// v3Tail holds the last bytes of a payload followed by zeros.
type v3Tail [2 * v3MaxRecordBytes]byte

// slack keeps at least v3MaxRecordBytes readable after p: while fewer are
// left in b, the rest of the payload (b[p:end]) moves to the start of
// tail, and reading goes on there. A record that starts at the returned
// offset can then be read with no length check, and one that ran past the
// returned end was cut short: it read the zeros behind the payload.
func slack(b []byte, p, end int, tail *v3Tail) ([]byte, int, int) {
	if len(b)-p >= v3MaxRecordBytes {
		return b, p, end
	}
	return tail[:], 0, copy(tail[:], b[p:end])
}

// v3StackStrs and v3StackCells bound the intern tables decodeBatchV3 keeps
// on its stack: a phone's frame names one or two APNs and a handful of
// cells, so only a shard-sized frame pays for a heap table.
const (
	v3StackStrs  = 4
	v3StackCells = 16
)

// decodeBatchV3 parses one v3 payload. Every count is
// bounded by the bytes actually present, so a corrupt frame can neither
// panic nor drive an allocation bomb, and every value must fit the field
// it lands in: a ModelID, AndroidVersion or OpsExecuted out of range, an
// APN name that is not a telephony.APN, and a transition naming an
// undefined RAT or signal level are malformed, never truncated. It fills
// b only on success. The events go into b.Events' capacity when b.Events
// is empty and has room for them, else into a slice of their own; past
// that it allocates nothing but an intern table past the stack bounds
// below.
//
// Fields are read from buf at p, with slack called before each record:
// until the last bytes of the payload buf is the payload itself, after
// them a zero-padded copy, and end is the payload's end in buf. So a
// varint is one inlined byte test, or one word (uvarintLong), and a
// record that ran past end was truncated.
func decodeBatchV3(payload []byte, b *Batch) error {
	var tail v3Tail
	buf, p, end := slack(payload, 0, len(payload), &tail)
	var device, seq, nStrs uint64
	device, p = uvarintAt(buf, p)
	if p >= 0 {
		seq, p = uvarintAt(buf, p)
	}
	if p >= 0 {
		nStrs, p = uvarintAt(buf, p)
	}
	if p < 0 || p > end || nStrs > uint64(end-p) {
		return errV3Malformed
	}
	var strBuf [v3StackStrs]telephony.APN
	strs := strBuf[:0]
	if nStrs > v3StackStrs {
		strs = make([]telephony.APN, 0, nStrs)
	}
	for i := uint64(0); i < nStrs; i++ {
		var n uint64
		buf, p, end = slack(buf, p, end, &tail)
		if n, p = uvarintAt(buf, p); p < 0 || p > end || n > uint64(end-p) {
			return errV3Malformed
		}
		apn, ok := telephony.ParseAPN(buf[p : p+int(n)])
		if !ok {
			return errV3Malformed
		}
		strs = append(strs, apn)
		p += int(n)
	}

	var nCells uint64
	buf, p, end = slack(buf, p, end, &tail)
	if nCells, p = uvarintAt(buf, p); p < 0 || p > end || nCells > uint64((end-p)/v3MinCellBytes) {
		return errV3Malformed
	}
	var cellBuf [v3StackCells]telephony.CellIdentity
	cells := cellBuf[:0]
	if nCells > v3StackCells {
		cells = make([]telephony.CellIdentity, 0, nCells)
	}
	for i := uint64(0); i < nCells; i++ {
		var mcc, mnc, lac, cid uint64
		buf, p, end = slack(buf, p, end, &tail)
		if mcc, p = uvarintAt(buf, p); p < 0 || mcc > 0xFFFF {
			return errV3Malformed
		}
		if mnc, p = uvarintAt(buf, p); p < 0 || mnc > 0xFFFF {
			return errV3Malformed
		}
		if lac, p = uvarintAt(buf, p); p < 0 || lac > 0xFFFFFFFF {
			return errV3Malformed
		}
		if cid, p = uvarintAt(buf, p); p < 0 || cid > 0xFFFFFFFF {
			return errV3Malformed
		}
		cdma := buf[p]
		if p++; cdma > 1 || p > end {
			return errV3Malformed
		}
		cells = append(cells, telephony.CellIdentity{MCC: uint16(mcc), MNC: uint16(mnc), LAC: uint32(lac), CID: uint32(cid), CDMA: cdma == 1})
	}

	var nEvents uint64
	buf, p, end = slack(buf, p, end, &tail)
	if nEvents, p = uvarintAt(buf, p); p < 0 || p > end || nEvents > uint64((end-p)/v3MinEventBytes) {
		return errV3Malformed
	}
	if nEvents == 0 {
		if p != end {
			return errV3Malformed
		}
		*b = Batch{DeviceID: device, Seq: seq}
		return nil
	}
	// Into the caller's spare capacity when it is offered and has room (a
	// collector's block tail, which may still hold a discarded frame: so
	// every field of every event is written below), else an exact slice.
	var events []failure.Event
	if len(b.Events) == 0 && uint64(cap(b.Events)) >= nEvents {
		events = b.Events[:nEvents]
	} else {
		events = make([]failure.Event, nEvents)
	}
	prevDev := device
	for i := range events {
		buf, p, end = slack(buf, p, end, &tail)
		e := &events[i]
		kind, flags := buf[p], buf[p+1]
		if flags&^byte(v3EvKnownBits) != 0 {
			return errV3Malformed
		}
		e.Kind = failure.Kind(kind)
		e.FiveGCapable = flags&v3EvFiveG != 0
		e.DenseBS = flags&v3EvDenseBS != 0
		var u uint64
		if u, p = uvarintAt(buf, p+2); p < 0 {
			return errV3Malformed
		}
		e.DeviceID = prevDev + uint64(unzigzag(u))
		prevDev = e.DeviceID
		if u, p = uvarintAt(buf, p); p < 0 || unzigzag(u) < 0 || unzigzag(u) > math.MaxUint16 {
			return errV3Malformed
		}
		e.ModelID = uint16(unzigzag(u))
		if u, p = uvarintAt(buf, p); p < 0 || unzigzag(u) < 0 || unzigzag(u) > math.MaxUint8 {
			return errV3Malformed
		}
		e.AndroidVersion = uint8(unzigzag(u))
		e.ISP = simnet.ISPID(buf[p])
		if u, p = uvarintAt(buf, p+1); p < 0 || u >= uint64(len(cells)) {
			return errV3Malformed
		}
		e.Cell = cells[u]
		e.Region, e.RAT, e.Level = geo.Region(buf[p]), telephony.RAT(buf[p+1]), telephony.SignalLevel(buf[p+2])
		if u, p = uvarintAt(buf, p+3); p < 0 || u >= uint64(len(strs)) {
			return errV3Malformed
		}
		e.APN = strs[u]
		if u, p = uvarintAt(buf, p); p < 0 {
			return errV3Malformed
		}
		e.Cause = telephony.FailCause(unzigzag(u))
		// Start and Duration count nanoseconds: multi-byte in any real
		// event, so they go to the word straight away.
		if u, p = uvarintLong(buf, p); p < 0 {
			return errV3Malformed
		}
		e.Start = time.Duration(unzigzag(u))
		if u, p = uvarintLong(buf, p); p < 0 {
			return errV3Malformed
		}
		e.Duration = time.Duration(unzigzag(u))
		e.ResolvedBy, e.OpsExecuted, e.AutoFixTime = 0, 0, 0
		e.HasTransition, e.Transition = false, failure.TransitionInfo{}
		if flags&v3EvResolved != 0 {
			e.ResolvedBy = android.ResolvedBy(buf[p])
			p++
		}
		if flags&v3EvOps != 0 {
			if u, p = uvarintAt(buf, p); p < 0 || unzigzag(u) < 0 || unzigzag(u) > math.MaxUint8 {
				return errV3Malformed
			}
			e.OpsExecuted = uint8(unzigzag(u))
		}
		if flags&v3EvAutoFix != 0 {
			if u, p = uvarintAt(buf, p); p < 0 {
				return errV3Malformed
			}
			e.AutoFixTime = time.Duration(unzigzag(u))
		}
		if flags&v3EvTransition != 0 {
			tr := failure.TransitionInfo{
				FromRAT: telephony.RAT(buf[p]), ToRAT: telephony.RAT(buf[p+1]),
				FromLevel: telephony.SignalLevel(buf[p+2]), ToLevel: telephony.SignalLevel(buf[p+3]),
			}
			if tr.FromRAT > telephony.RAT5G || tr.ToRAT > telephony.RAT5G || !tr.FromLevel.Valid() || !tr.ToLevel.Valid() {
				return errV3Malformed
			}
			e.HasTransition, e.Transition = true, tr
			p += 4
		}
		if p > end {
			return errV3Malformed
		}
	}
	if p != end {
		return errV3Malformed
	}
	*b = Batch{DeviceID: device, Seq: seq, Events: events}
	return nil
}

// v3HeaderLen is the fixed frame prefix: tag, flags, uint32 BE payload
// length.
const v3HeaderLen = 6

// ReadFrameRaw reads one frame from br into buf (grown when too small) and
// decodes it into b, which the caller owns and may reuse frame to frame.
// raw holds the frame exactly as received — tag, flags, length, payload — so
// a store can append the very bytes that were validated instead of
// re-encoding the batch; it aliases buf's storage and stays valid only
// until that storage is reused (pass raw[:0] as the next call's buf). On
// success b holds the frame's DeviceID and Seq and its Events (nil for an
// empty batch), which share nothing with raw. Reuse is opt-in: when
// b.Events comes in empty (len 0) with room for the frame's events, they
// are decoded into that capacity, as the collector does into its block
// tail; otherwise they get a fresh slice that shares nothing with b's
// previous Events. Read into a buffer large enough for it, a frame of at
// most v3StackStrs APN names and v3StackCells
// cells allocates that fresh slice and nothing else, and nothing at all
// when it decodes into offered capacity. On error b's fields are left as
// they were, though offered capacity may have been written. A first byte
// other than 0xA3 or a flags byte other than 0 is a malformed frame, the
// latter errV3Flagged even when the header is cut short after it; io.EOF is returned only for a
// stream ending cleanly at a frame boundary.
func ReadFrameRaw(br *bufio.Reader, buf []byte, b *Batch) (raw []byte, err error) {
	tag, err := br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("trace: read batch tag: %w", err)
	}
	if tag != versionV3 {
		return nil, fmt.Errorf("%w: tag 0x%02x", errV3Malformed, tag)
	}
	// The rest of the header is read in place from br's buffer (a copy
	// would escape through the io.Reader and cost an allocation a frame),
	// with io.ReadFull's errors: EOF if none of it came, else
	// ErrUnexpectedEOF.
	hdr, err := br.Peek(v3HeaderLen - 1)
	if len(hdr) > 0 && hdr[0] != 0 {
		return nil, fmt.Errorf("%w 0x%02x", errV3Flagged, hdr[0])
	}
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("trace: read v3 batch header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n == 0 || n > maxBatchWire {
		return nil, fmt.Errorf("trace: implausible v3 batch size %d", n)
	}
	if total := v3HeaderLen + int(n); cap(buf) < total {
		buf = make([]byte, total)
	} else {
		buf = buf[:total]
	}
	buf[0] = tag
	copy(buf[1:], hdr)
	br.Discard(v3HeaderLen - 1)
	payload := buf[v3HeaderLen:]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("trace: read v3 batch payload: %w", err)
	}
	if err := decodeBatchV3(payload, b); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadBatchAny reads one frame from br through a pooled buffer. It returns
// the batch, the total wire bytes consumed (including the tag byte), and
// DialectV3; errors are ReadFrameRaw's.
func ReadBatchAny(br *bufio.Reader) (*Batch, int, Dialect, error) {
	fp := getScratch(0)
	defer putScratch(fp)
	b := new(Batch)
	raw, err := ReadFrameRaw(br, *fp, b)
	if err != nil {
		return nil, 0, 0, err
	}
	*fp = raw
	return b, len(raw), DialectV3, nil
}
