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
//	frame   = versionV3 byte (0xA5) ++ flags byte (0) ++ uint32 BE payload len
//	          ++ payload
//	payload = uvarint DeviceID ++ uvarint Seq
//	          ++ uvarint #cells  ++ { cell record }             (BS table)
//	          ++ uvarint #events ++ { event record }
//	cell    = uvarint (LAC<<2 | same-PLMN<<1 | CDMA)
//	          ++ [ uvarint MCC ++ uvarint MNC ]                 (unless same-PLMN)
//	          ++ uvarint CID
//	event   = head byte (six optional-field flags, same-context, wide)
//	          ++ [ zigzag DeviceID delta ++ zigzag ModelID
//	               ++ zigzag AndroidVersion ++ ISP byte ]       (unless same-context)
//	          ++ uvarint cell index
//	          ++ ( packed uint16 LE ++ [ zigzag Cause ]         (unless wide)
//	             | Kind, Region, RAT, Level, APN bytes
//	               ++ zigzag Cause )                            (wide)
//	          ++ zigzag Start (a delta when same-context) ++ zigzag Duration
//	          ++ [ ResolvedBy byte ] ++ [ zigzag OpsExecuted ]
//	          ++ [ zigzag AutoFixTime ] ++ [ transition uint16 LE ]
//
// All multi-byte integers inside the payload are varints (zigzag for
// signed values). A record says each thing once. One whose DeviceID,
// ModelID, AndroidVersion and ISP are the previous record's in the frame
// sets the same-context bit, writes none of the four, and codes its Start
// as the delta from that record's Start; the first record of a frame
// cannot claim it. Kind, Region, RAT, Level, APN and a cause-present bit
// share the packed field (3+3+3+3+3+1 bits, low bits first), and a zero
// Cause is not written. Three bits hold every value each enum defines. An
// event with a byte past 7 in one of those fields, which no enum defines,
// sets the wide bit and writes the five raw bytes and the cause instead. A
// transition packs its RATs and levels the same way, the top four bits
// zero. The encoder refuses one naming an undefined RAT or level, as the
// decoder does, and every other event round-trips bit for bit. The camped
// cell is interned in a per-frame table and referenced by index; a cell
// record whose MCC and MNC are the previous one's sets the same-PLMN bit
// instead of writing them (the first cannot).
//
// The encoding is the compression: there is no second, deflated body. A
// phone's frame of a few dozen events costs about 22 B an event, a bulk one
// about 19, and a frame is read as it lies on the wire or on disk, with no
// inflate in front of the decoder. The flags byte is always 0. An older
// encoder's frame — tag 0xA4 or 0xA3, an older record layout, or a flags
// byte other than 0, a gzip'd body — is malformed to every reader, refused,
// never misread. Encode and decode scratch — buffers, the cell index — is
// recycled through sync.Pools. An uploader builds its pending batch in a
// pooled builder as events are recorded and seals it into its last acked
// frame's buffer, and the collector reuses its frame buffer and Batch
// header. The collector decodes a frame's events straight into the free
// tail of a block the dataset owns and publishes them there, and a bulk
// frame's cell table into a pooled one, so a steady-state upload, a phone's
// or a bulk one, allocates nothing end to end; the dataset cuts a new
// 73 728 B block every 1024 events.
//
// The encoder writes each record in place, a varint of up to 8 bytes as
// one word store, and interns cells in an open-addressed index keyed on
// the whole identity. The index is exact because the table is the frame:
// two cells merged under a lossy key such as telephony's GlobalID, which
// keeps only the low 16 bits of LAC and CID, would decode as one cell.
//
// It is the only format: uploads and segment files hold these frames, and
// a first byte other than 0xA5 is a malformed frame to every reader.
const (
	// versionV3 prefixes every v3 upload frame.
	versionV3 = 0xA5
	// versionV3Older and versionV3Oldest prefixed the frames of the two
	// record layouts before this one, which no reader accepts.
	versionV3Older  = 0xA4
	versionV3Oldest = 0xA3
	// v3MinEventBytes is the smallest possible encoded event (a
	// same-context record, every varint one byte, no optional fields:
	// head, cell index, packed field, Start delta, Duration) — the
	// decoder's allocation bound.
	v3MinEventBytes = 6
	// v3MinCellBytes is the smallest possible cell-table record: a
	// same-PLMN record of a one-byte LAC and a one-byte CID.
	v3MinCellBytes = 2
)

// Dialect names the wire format of a decoded frame: ReadBatchAny's third
// result.
type Dialect uint8

// DialectV3 is the binary format described above: 0xA5 frames, 13-byte
// ack/nack replies.
const DialectV3 Dialect = 3

// errV3Malformed wraps every structural decode failure, so callers can
// distinguish a corrupt frame from an I/O error.
var errV3Malformed = errors.New("trace: malformed v3 frame")

// errV3Older is the malformed frame an older encoder wrote: a 0xA4 or 0xA3
// tag, or a flags byte other than 0 (a gzip'd body, or any other bytes
// behind the tag). A write torn short of a frame this encoder wrote begins
// with neither, so a store replaying its tail refuses it rather than cut it
// as a torn write: the frame is whole and may have been acked.
var errV3Older = fmt.Errorf("%w: an older encoder's frame", errV3Malformed)

// ---------------------------------------------------------------------------
// Pools. The frame builder and its buffers survive across batches; only
// decoded events escape.

// v3Enc builds one frame: events are encoded into the event section as
// they arrive (appendEvent), interning their cells as they go, and seal
// writes the header and the cell table in front of them. AppendBatchV3
// builds a whole batch at once through a pooled builder; an Uploader
// keeps one as its pending buffer, so Record encodes and Flush only
// seals.
type v3Enc struct {
	payload []byte // seal's header scratch
	events  []byte // the encoded event records, oldest first
	n       int    // events in the event section
	prev    uint64 // DeviceID of the last event (the batch's before the first)
	// The rest of the last event's context, which a same-context record
	// leaves out, and its Start, which such a record codes a delta from.
	model uint16
	av    uint8
	isp   simnet.ISPID
	start time.Duration
	// frame is an Uploader's spare frame buffer: its last acked frame,
	// emptied, which the next seal writes into.
	frame []byte
	// bad names the first event no reader would accept, which seal refuses
	// to frame; nil while there is none.
	bad   error
	cells []telephony.CellIdentity
	// slots indexes cells: an open-addressed table, a power of two long
	// and at most half full, whose filled slots carry gen. Bumping gen
	// empties it in O(1), so a frame of any size interns through it.
	slots []cellSlot
	gen   uint32
}

// cellSlot is one slot of a builder's cell index: a cell's whole identity
// as cellKey packs it, and its place in the cell table.
type cellSlot struct {
	k0, k1 uint64
	gen    uint32 // the builder's gen when filled; any other value is empty
	idx    uint32
}

const (
	// v3CellSlots is a fresh cell index's length: room for 32 cells, past
	// a phone's frame, before it doubles.
	v3CellSlots = 64
	// v3MaxPooledSlots bounds the cell index a builder takes back into
	// v3EncPool (384 KiB, 8192 cells): a larger one is dropped there, so a
	// pathological frame's index is not parked for every later batch.
	v3MaxPooledSlots = 1 << 14
)

var v3EncPool = sync.Pool{New: func() any { return new(v3Enc) }}

// putEnc returns enc to v3EncPool, without a cell index grown past
// v3MaxPooledSlots.
func putEnc(enc *v3Enc) {
	if len(enc.slots) > v3MaxPooledSlots {
		enc.slots = nil
	}
	v3EncPool.Put(enc)
}

// reset empties the builder for a batch of device's, keeping its buffers.
func (enc *v3Enc) reset(device uint64) {
	enc.events = enc.events[:0]
	enc.n, enc.prev, enc.bad = 0, device, nil
	enc.cells = enc.cells[:0]
	// The cell index empties by a new gen: its slots are cleared only when
	// gen wraps, once in 2³² batches.
	if enc.slots == nil {
		enc.slots = make([]cellSlot, v3CellSlots)
	}
	if enc.gen++; enc.gen == 0 {
		clear(enc.slots)
		enc.gen = 1
	}
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

// cellKey packs every bit of a cell identity into two words: MCC, MNC and
// LAC in the first, CID and the CDMA flag in the second. It is exact where
// telephony's GlobalID is not: two cells that differ only above the low
// 16 bits of their LAC or CID share a GlobalID, and a frame must still
// list them as two cells.
func cellKey(c *telephony.CellIdentity) (k0, k1 uint64) {
	k1 = uint64(c.CID)
	if c.CDMA {
		k1 |= 1 << 32
	}
	return uint64(c.MCC)<<48 | uint64(c.MNC)<<32 | uint64(c.LAC), k1
}

// cellHash mixes a cellKey through one 64×64→128-bit multiply, so every
// bit of either word reaches the low bits a slot index is masked from.
func cellHash(k0, k1 uint64) int {
	hi, lo := bits.Mul64(k0^0x9e3779b97f4a7c15, k1^0xbf58476d1ce4e5b9)
	return int(hi ^ lo)
}

// cellIndex returns c's index in the frame's cell table, which lists cells
// in order of first use, appending c when it is new.
func (enc *v3Enc) cellIndex(c *telephony.CellIdentity) int {
	k0, k1 := cellKey(c)
	mask := len(enc.slots) - 1
	for i := cellHash(k0, k1) & mask; ; i = (i + 1) & mask {
		s := &enc.slots[i]
		if s.gen != enc.gen {
			return enc.addCell(c, k0, k1, i)
		}
		if s.k0 == k0 && s.k1 == k1 {
			return int(s.idx)
		}
	}
}

// addCell lists c, whose key (k0, k1) probed to the empty slot i, as the
// table's next cell. An index it would fill past half is doubled instead,
// and every listed cell, c included, is indexed again.
func (enc *v3Enc) addCell(c *telephony.CellIdentity, k0, k1 uint64, i int) int {
	idx := len(enc.cells)
	enc.cells = append(enc.cells, *c)
	if 2*len(enc.cells) <= len(enc.slots) {
		enc.slots[i] = cellSlot{k0: k0, k1: k1, gen: enc.gen, idx: uint32(idx)}
		return idx
	}
	enc.slots = make([]cellSlot, 2*len(enc.slots))
	mask := len(enc.slots) - 1
	for j := range enc.cells {
		k0, k1 := cellKey(&enc.cells[j])
		i := cellHash(k0, k1) & mask
		for enc.slots[i].gen == enc.gen {
			i = (i + 1) & mask
		}
		enc.slots[i] = cellSlot{k0: k0, k1: k1, gen: enc.gen, idx: uint32(j)}
	}
	return idx
}

// Bits of an event record's head byte: the six optional-field flags, then
// the same-context and wide bits.
const (
	v3EvFiveG      = 1 << 0
	v3EvDenseBS    = 1 << 1
	v3EvResolved   = 1 << 2
	v3EvOps        = 1 << 3
	v3EvAutoFix    = 1 << 4
	v3EvTransition = 1 << 5
	v3EvSame       = 1 << 6 // DeviceID, ModelID, AndroidVersion and ISP are the previous record's
	v3EvWide       = 1 << 7 // a byte past 7, which no enum defines: raw bytes instead of the packed field
)

// The packed field: Kind, Region, RAT, Level and APN, 3 bits each from
// the low bits up, then the cause-present bit.
const v3PackCause = 1 << 15

// Bits of a cell record's first varint, below the LAC.
const (
	v3CellCDMA     = 1 << 0
	v3CellSamePLMN = 1 << 1 // MCC and MNC are the previous cell record's
)

// validTransition reports whether tr names only defined RATs and signal
// levels: the encoder's and the decoder's one test of a transition.
func validTransition(tr *failure.TransitionInfo) bool {
	return tr.FromRAT <= telephony.RAT5G && tr.ToRAT <= telephony.RAT5G && tr.FromLevel.Valid() && tr.ToLevel.Valid()
}

// undefinedTransition is seal's error for a batch whose event i carries
// tr, which names an undefined RAT or signal level. It is kept out of
// appendEvent, so the per-event path carries the test and not the fmt
// call.
func undefinedTransition(i int, tr *failure.TransitionInfo) error {
	return fmt.Errorf("trace: event %d of the batch has transition RAT %d→%d, level %d→%d, which no reader accepts",
		i, tr.FromRAT, tr.ToRAT, tr.FromLevel, tr.ToLevel)
}

// putUvarint writes v as a uvarint at b[p:] and returns the offset just
// past it. The one-byte case — most deltas, indexes and enums — is small
// enough to inline at every field. b must hold 8 bytes at p, or 10 for a
// value at or past 2⁵⁶.
func putUvarint(b []byte, p int, v uint64) int {
	if v < 0x80 {
		b[p] = byte(v)
		return p + 1
	}
	return putUvarintLong(b, p, v)
}

// putUvarintLong writes v as a uvarint at b[p:] like putUvarint, for a
// field that is rarely one byte long. A value below 2⁵⁶, at most 8 varint
// bytes, goes out in one little-endian word: uvarintLong's mask-and-shift
// steps run backwards to spread its 7-bit groups one to a byte, and every
// byte below the highest non-zero one gets the continuation bit. The
// word's bytes past the varint are zeros for the next field to overwrite.
// A larger value goes through binary.PutUvarint.
func putUvarintLong(b []byte, p int, v uint64) int {
	if v >= 1<<56 {
		return p + binary.PutUvarint(b[p:], v)
	}
	w := v&0x000000000fffffff | v&0x00fffffff0000000<<4
	w = w&0x00003fff00003fff | w&0x0fffc0000fffc000<<2
	w = w&0x007f007f007f007f | w&0x3f803f803f803f80<<1
	last := uint(bits.Len64(w|1)-1) >> 3 // the varint's last byte
	binary.LittleEndian.PutUint64(b[p:], w|0x8080808080808080&(1<<(8*last&63)-1))
	return p + int(last) + 1
}

// appendEvent encodes one event at the end of the event section. A record
// whose context is the previous one's leaves it out and codes its Start as
// a delta; any other codes its DeviceID as the delta from the previous
// event's (the batch DeviceID's for the first event), since a batch is
// usually one device's — or one shard's contiguous range of — events. The
// section grows once, by the longest record and the 8 bytes a word store
// may write past it, and every field is written in place.
func (enc *v3Enc) appendEvent(e *failure.Event) {
	var head byte
	if e.FiveGCapable {
		head |= v3EvFiveG
	}
	if e.DenseBS {
		head |= v3EvDenseBS
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
	if e.HasTransition {
		head |= v3EvTransition
	}
	if uint8(e.Kind)|uint8(e.Region)|uint8(e.RAT)|uint8(e.Level)|uint8(e.APN) > 7 {
		head |= v3EvWide
	}
	start := e.Start
	if enc.n > 0 && e.DeviceID == enc.prev && e.ModelID == enc.model && e.AndroidVersion == enc.av && e.ISP == enc.isp {
		head |= v3EvSame
		start -= enc.start
	}
	b := slices.Grow(enc.events, v3MaxRecordBytes+8)
	p := len(b)
	b = b[:p+v3MaxRecordBytes+8]
	b[p] = head
	p++
	if head&v3EvSame == 0 {
		p = putUvarint(b, p, zigzag(int64(e.DeviceID-enc.prev)))
		p = putUvarint(b, p, zigzag(int64(e.ModelID)))
		p = putUvarint(b, p, zigzag(int64(e.AndroidVersion)))
		b[p] = byte(e.ISP)
		p++
	}
	p = putUvarint(b, p, uint64(enc.cellIndex(&e.Cell)))
	if head&v3EvWide == 0 {
		v := uint(e.Kind) | uint(e.Region)<<3 | uint(e.RAT)<<6 | uint(e.Level)<<9 | uint(e.APN)<<12
		if e.Cause != 0 {
			v |= v3PackCause
		}
		b[p], b[p+1] = byte(v), byte(v>>8)
		p += 2
		if e.Cause != 0 {
			// Most causes are codes past 63: multi-byte.
			p = putUvarintLong(b, p, zigzag(int64(e.Cause)))
		}
	} else {
		b[p], b[p+1], b[p+2], b[p+3], b[p+4] = byte(e.Kind), byte(e.Region), byte(e.RAT), byte(e.Level), byte(e.APN)
		p = putUvarint(b, p+5, zigzag(int64(e.Cause)))
	}
	// Start and Duration count nanoseconds: multi-byte in any real event.
	p = putUvarintLong(b, p, zigzag(int64(start)))
	p = putUvarintLong(b, p, zigzag(int64(e.Duration)))
	if head&v3EvResolved != 0 {
		b[p] = byte(e.ResolvedBy)
		p++
	}
	if head&v3EvOps != 0 {
		p = putUvarint(b, p, zigzag(int64(e.OpsExecuted)))
	}
	if head&v3EvAutoFix != 0 {
		p = putUvarintLong(b, p, zigzag(int64(e.AutoFixTime)))
	}
	if e.HasTransition {
		tr := &e.Transition
		if !validTransition(tr) && enc.bad == nil {
			enc.bad = undefinedTransition(enc.n, tr)
		}
		v := uint(tr.FromRAT) | uint(tr.ToRAT)<<3 | uint(tr.FromLevel)<<6 | uint(tr.ToLevel)<<9
		b[p], b[p+1] = byte(v), byte(v>>8)
		p += 2
	}
	enc.events = b[:p]
	enc.n++
	enc.prev, enc.model, enc.av, enc.isp, enc.start = e.DeviceID, e.ModelID, e.AndroidVersion, e.ISP, e.Start
}

// AppendBatchV3 appends one complete v3 wire frame (tag, flags, length,
// payload) for b to dst and returns the extended slice: it builds the batch
// in a pooled builder and seals it, as an Uploader builds its pending
// batch event by event, and fails as seal does, appending nothing. The
// builder comes from a pool, so steady-state encoding does not allocate
// beyond dst's growth.
func AppendBatchV3(dst []byte, b *Batch) ([]byte, error) {
	enc := v3EncPool.Get().(*v3Enc)
	defer putEnc(enc)
	enc.reset(b.DeviceID)
	for i := range b.Events {
		enc.appendEvent(&b.Events[i])
	}
	return enc.seal(dst, b.DeviceID, b.Seq)
}

// seal appends the frame of the built events to dst under the header
// (device, seq): the cell table and the event count go in front of the
// event section, so the frame is the one AppendBatchV3 writes for the same
// events. A batch holding an event no reader accepts, or too large for the
// wire, is not framed, and the error says why. The events stay built;
// reset starts the next batch.
func (enc *v3Enc) seal(dst []byte, device, seq uint64) ([]byte, error) {
	if enc.bad != nil {
		return dst, enc.bad
	}
	h := enc.payload[:0]
	h = binary.AppendUvarint(h, device)
	h = binary.AppendUvarint(h, seq)
	h = binary.AppendUvarint(h, uint64(len(enc.cells)))
	for i, c := range enc.cells {
		v := uint64(c.LAC) << 2
		if c.CDMA {
			v |= v3CellCDMA
		}
		same := i > 0 && c.MCC == enc.cells[i-1].MCC && c.MNC == enc.cells[i-1].MNC
		if same {
			v |= v3CellSamePLMN
		}
		h = binary.AppendUvarint(h, v)
		if !same {
			h = binary.AppendUvarint(h, uint64(c.MCC))
			h = binary.AppendUvarint(h, uint64(c.MNC))
		}
		h = binary.AppendUvarint(h, uint64(c.CID))
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
// the longest possible event (a wide record that carries its context,
// every varint at binary.Uvarint's 10-byte limit, every optional field
// present) is longer than a cell record or the three varints of the frame
// header.
const v3MaxRecordBytes = 1 + 3*binary.MaxVarintLen64 + 1 + binary.MaxVarintLen64 + 5 +
	3*binary.MaxVarintLen64 + 1 + 2*binary.MaxVarintLen64 + 2

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

// v3StackCells bounds the cell table decodeBatchV3 keeps on its stack: a
// phone's frame names a handful of cells. A frame of more cells, a bulk
// upload's, reads its cell table into one from v3CellsPool.
const (
	v3StackCells = 16
	// v3EventsChunk is the most events a frame's own events slice holds
	// before any record is read (576 KiB): past a run directory's
	// 4 096-event frames, so only a larger frame grows its slice.
	v3EventsChunk = 1 << 13
	// v3MaxPooledCells bounds the cell table v3CellsPool takes back
	// (128 KiB): a larger one, a shard-sized frame's, is dropped.
	v3MaxPooledCells = 1 << 13
)

// v3CellsPool recycles decodeBatchV3's cell tables past v3StackCells.
var v3CellsPool = sync.Pool{New: func() any { return new([]telephony.CellIdentity) }}

// getCells returns an empty pooled cell table with room for n cells.
func getCells(n int) *[]telephony.CellIdentity {
	p := v3CellsPool.Get().(*[]telephony.CellIdentity)
	if cap(*p) < n {
		*p = make([]telephony.CellIdentity, 0, n)
	}
	*p = (*p)[:0]
	return p
}

func putCells(p *[]telephony.CellIdentity) {
	if cap(*p) <= v3MaxPooledCells {
		v3CellsPool.Put(p)
	}
}

// decodeBatchV3 parses one v3 payload. Every count is
// bounded by the bytes actually present, so a corrupt frame can neither
// panic nor drive an allocation bomb, and every value must fit the field
// it lands in: a ModelID, AndroidVersion, OpsExecuted, MCC, MNC, LAC or
// CID out of range, and a transition naming an undefined RAT or signal
// level or setting its top four bits, are malformed, never truncated, as
// is a first event or cell record that claims the previous one's context
// or network. It fills b only on success. The events go into b.Events'
// capacity when b.Events is empty and has room for them, else into a
// slice of their own, which grows as its records check out; past that it
// allocates nothing.
//
// Fields are read from buf at p, with slack called before each record:
// until the last bytes of the payload buf is the payload itself, after
// them a zero-padded copy, and end is the payload's end in buf. So a
// varint is one inlined byte test, or one word (uvarintLong), and a
// record that ran past end was truncated.
func decodeBatchV3(payload []byte, b *Batch) error {
	var tail v3Tail
	buf, p, end := slack(payload, 0, len(payload), &tail)
	var device, seq, nCells uint64
	device, p = uvarintAt(buf, p)
	if p >= 0 {
		seq, p = uvarintAt(buf, p)
	}
	if p >= 0 {
		nCells, p = uvarintAt(buf, p)
	}
	if p < 0 || p > end || nCells > uint64((end-p)/v3MinCellBytes) {
		return errV3Malformed
	}
	var cellBuf [v3StackCells]telephony.CellIdentity
	cells := cellBuf[:0]
	if nCells > v3StackCells {
		// nCells is bounded by the bytes present, checked above, before
		// it sizes a table.
		tp := getCells(int(nCells))
		defer putCells(tp)
		cells = *tp
	}
	var mcc, mnc uint64 // the previous cell record's, which a same-PLMN record repeats
	for i := uint64(0); i < nCells; i++ {
		var u, cid uint64
		buf, p, end = slack(buf, p, end, &tail)
		if u, p = uvarintAt(buf, p); p < 0 || u>>2 > math.MaxUint32 {
			return errV3Malformed
		}
		if u&v3CellSamePLMN == 0 {
			if mcc, p = uvarintAt(buf, p); p < 0 || mcc > math.MaxUint16 {
				return errV3Malformed
			}
			if mnc, p = uvarintAt(buf, p); p < 0 || mnc > math.MaxUint16 {
				return errV3Malformed
			}
		} else if i == 0 {
			return errV3Malformed // no previous record to repeat
		}
		if cid, p = uvarintAt(buf, p); p < 0 || cid > math.MaxUint32 || p > end {
			return errV3Malformed
		}
		cells = append(cells, telephony.CellIdentity{MCC: uint16(mcc), MNC: uint16(mnc), LAC: uint32(u >> 2), CID: uint32(cid), CDMA: u&v3CellCDMA != 0})
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
	// every field of every event is written below), else a slice of its
	// own. The count is bounded only by the bytes present, up to 11 M
	// events at maxBatchWire, so that slice starts at v3EventsChunk and
	// doubles as the records before its end check out: memory follows
	// records read, never the count a frame claims.
	var events []failure.Event
	if len(b.Events) == 0 && uint64(cap(b.Events)) >= nEvents {
		events = b.Events[:nEvents]
	} else {
		events = make([]failure.Event, min(nEvents, v3EventsChunk))
	}
	// The context a same-context record repeats: the previous record's.
	var (
		dev   = device
		model uint16
		av    uint8
		isp   simnet.ISPID
		start time.Duration
	)
	for i := 0; i < int(nEvents); i++ {
		if i == len(events) {
			events = append(events, make([]failure.Event, min(int(nEvents)-i, i))...)
		}
		buf, p, end = slack(buf, p, end, &tail)
		e := &events[i]
		head := buf[p]
		e.FiveGCapable = head&v3EvFiveG != 0
		e.DenseBS = head&v3EvDenseBS != 0
		var u uint64
		p++
		if head&v3EvSame == 0 {
			if u, p = uvarintAt(buf, p); p < 0 {
				return errV3Malformed
			}
			dev += uint64(unzigzag(u))
			if u, p = uvarintAt(buf, p); p < 0 || unzigzag(u) < 0 || unzigzag(u) > math.MaxUint16 {
				return errV3Malformed
			}
			model = uint16(unzigzag(u))
			if u, p = uvarintAt(buf, p); p < 0 || unzigzag(u) < 0 || unzigzag(u) > math.MaxUint8 {
				return errV3Malformed
			}
			av = uint8(unzigzag(u))
			isp = simnet.ISPID(buf[p])
			p++
		} else if i == 0 {
			return errV3Malformed // no previous record to repeat
		}
		e.DeviceID, e.ModelID, e.AndroidVersion, e.ISP = dev, model, av, isp
		if u, p = uvarintAt(buf, p); p < 0 || u >= uint64(len(cells)) {
			return errV3Malformed
		}
		e.Cell = cells[u]
		e.Cause = 0
		if head&v3EvWide == 0 {
			v := uint(buf[p]) | uint(buf[p+1])<<8
			e.Kind, e.Region = failure.Kind(v&7), geo.Region(v>>3&7)
			e.RAT, e.Level = telephony.RAT(v>>6&7), telephony.SignalLevel(v>>9&7)
			e.APN = telephony.APN(v >> 12 & 7)
			p += 2
			if v&v3PackCause != 0 { // a code past 63, mostly: multi-byte
				if u, p = uvarintLong(buf, p); p < 0 {
					return errV3Malformed
				}
				e.Cause = telephony.FailCause(unzigzag(u))
			}
		} else {
			e.Kind, e.Region = failure.Kind(buf[p]), geo.Region(buf[p+1])
			e.RAT, e.Level, e.APN = telephony.RAT(buf[p+2]), telephony.SignalLevel(buf[p+3]), telephony.APN(buf[p+4])
			if u, p = uvarintAt(buf, p+5); p < 0 {
				return errV3Malformed
			}
			e.Cause = telephony.FailCause(unzigzag(u))
		}
		// Start, Duration and AutoFixTime count nanoseconds: multi-byte in
		// any real event, so they go to the word straight away.
		if u, p = uvarintLong(buf, p); p < 0 {
			return errV3Malformed
		}
		if head&v3EvSame == 0 {
			start = 0
		}
		start += time.Duration(unzigzag(u))
		e.Start = start
		if u, p = uvarintLong(buf, p); p < 0 {
			return errV3Malformed
		}
		e.Duration = time.Duration(unzigzag(u))
		e.ResolvedBy, e.OpsExecuted, e.AutoFixTime = 0, 0, 0
		e.HasTransition, e.Transition = false, failure.TransitionInfo{}
		if head&v3EvResolved != 0 {
			e.ResolvedBy = android.ResolvedBy(buf[p])
			p++
		}
		if head&v3EvOps != 0 {
			if u, p = uvarintAt(buf, p); p < 0 || unzigzag(u) < 0 || unzigzag(u) > math.MaxUint8 {
				return errV3Malformed
			}
			e.OpsExecuted = uint8(unzigzag(u))
		}
		if head&v3EvAutoFix != 0 {
			if u, p = uvarintLong(buf, p); p < 0 {
				return errV3Malformed
			}
			e.AutoFixTime = time.Duration(unzigzag(u))
		}
		if head&v3EvTransition != 0 {
			v := uint(buf[p]) | uint(buf[p+1])<<8
			tr := failure.TransitionInfo{
				FromRAT: telephony.RAT(v & 7), ToRAT: telephony.RAT(v >> 3 & 7),
				FromLevel: telephony.SignalLevel(v >> 6 & 7), ToLevel: telephony.SignalLevel(v >> 9 & 7),
			}
			if v>>12 != 0 || !validTransition(&tr) {
				return errV3Malformed
			}
			e.HasTransition, e.Transition = true, tr
			p += 2
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
// previous Events. Read into a buffer large enough for it, a frame
// allocates that fresh slice and nothing else, and nothing at all when it
// decodes into offered capacity. On error b's fields are left as they
// were, though offered capacity may have been written. A first byte other
// than 0xA5 or a flags byte other than 0 is a malformed frame, a 0xA4 or
// 0xA3 tag or a non-zero flags byte errV3Older even when the header is cut
// short after it; io.EOF is returned only for a
// stream ending cleanly at a frame boundary.
func ReadFrameRaw(br *bufio.Reader, buf []byte, b *Batch) (raw []byte, err error) {
	tag, err := br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("trace: read batch tag: %w", err)
	}
	if tag == versionV3Older || tag == versionV3Oldest {
		return nil, fmt.Errorf("%w: tag 0x%02x", errV3Older, tag)
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
		return nil, fmt.Errorf("%w: flags byte 0x%02x", errV3Older, hdr[0])
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
