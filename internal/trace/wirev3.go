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
//	frame   = versionV3 byte (0xA6) ++ flags byte (0) ++ uint32 BE payload len
//	          ++ payload
//	payload = uvarint DeviceID ++ uvarint Seq
//	          ++ uvarint #stations ++ { station }                (cell table)
//	          ++ uvarint #events ++ { event record }
//	station = uvarint (LAC<<2 | same-PLMN<<1 | CDMA)
//	          ++ [ uvarint MCC ++ uvarint MNC ]                  (unless same-PLMN)
//	          ++ uvarint CID
//	          ++ ( Region | RAT<<3 | DenseBS<<6                  (unless wide)
//	             | wide bit ++ Region byte ++ RAT byte )         (wide)
//	event   = head byte (four optional-field flags, whole-seconds,
//	                     arrives-here, same-context, wide)
//	          ++ [ zigzag DeviceID delta ++ zigzag ModelID
//	               ++ zigzag AndroidVersion ++ ISP byte
//	               ++ uvarint (APN<<1 | FiveGCapable) ]          (unless same-context)
//	          ++ uvarint station index
//	          ++ ( Kind | Level<<3 | cause-present<<6 ++ [ zigzag Cause ]
//	             | Kind byte ++ Level byte ++ zigzag Cause )     (wide)
//	          ++ ( uvarint Start delta | zigzag Start )         (same-context or not)
//	          ++ ( uvarint seconds | zigzag Duration )          (whole-seconds or not)
//	          ++ [ ResolvedBy byte ] ++ [ zigzag OpsExecuted ]
//	          ++ [ zigzag AutoFixTime ]
//	          ++ [ FromRAT | FromLevel<<3                       (arrives-here)
//	             | transition uint16 LE ]
//
// All multi-byte integers inside the payload are varints (zigzag for
// signed values). A record says only what its frame does not already
// know: the cell, with the Region, RAT and DenseBS it was seen under, is
// a station of the per-frame table; a record whose six context fields are
// the previous one's and whose Start is not earlier writes none of them
// and an unsigned Start step (never the first record); Kind, Level and a
// cause-present bit pack into one byte; whole seconds are written in
// seconds; and a transition that arrives at the event's RAT and level is
// one byte of where it came from. A byte past 7, which no enum defines,
// takes a wide shape with raw bytes. The encoder refuses a transition
// naming an undefined RAT or level, as the decoder does, and every other
// event round-trips bit for bit. Bits the layout keeps zero must be zero.
//
// The encoding is the compression: there is no deflated body, and a frame
// is read as it lies on the wire or on disk. A phone's frame of a few
// dozen events costs about 20 B an event, a bulk one about 17. It is the
// only format: a first byte other than 0xA6 or a flags byte other than 0
// is a malformed frame to every reader, and an older build's frame (a tag
// from 0xA3 to 0xA5, or a non-zero flags byte, a gzip'd body) is refused,
// never misread. Encode and decode scratch is pooled: an uploader builds
// its pending batch event by event and seals it into its last acked
// frame's buffer, and the collector decodes a frame's events straight into
// the free tail of a block the dataset owns, so a steady-state upload
// allocates nothing end to end.
const (
	// versionV3 prefixes every v3 upload frame.
	versionV3 = 0xA6
	// versionV3First prefixed the first v3 record layout: every tag from
	// it up to versionV3 is an older layout's, which no reader accepts.
	versionV3First = 0xA3
	// v3MinEventBytes is the smallest possible encoded event (a
	// same-context record, every varint one byte, no optional fields:
	// head, station index, packed byte, Start step, Duration) — the
	// decoder's allocation bound.
	v3MinEventBytes = 5
	// v3MinCellBytes is the smallest possible station: a same-PLMN record
	// of a one-byte LAC and a one-byte CID, and its station byte.
	v3MinCellBytes = 3
)

// Dialect names the wire format of a decoded frame: ReadBatchAny's third
// result.
type Dialect uint8

// DialectV3 is the binary format described above: 0xA6 frames, 13-byte
// ack/nack replies.
const DialectV3 Dialect = 3

// errV3Malformed wraps every structural decode failure, so callers can
// distinguish a corrupt frame from an I/O error.
var errV3Malformed = errors.New("trace: malformed v3 frame")

// errV3Older is the malformed frame an older build wrote: a tag from 0xA3
// to 0xA5, or a flags byte other than 0 (a gzip'd body). A write torn
// short of a frame this encoder wrote begins with neither, so a store
// replaying its tail refuses it rather than cut it as a torn write: the
// frame is whole and may have been acked. olderFrameError wraps it with
// the header byte found and the remedy.
var errV3Older = fmt.Errorf("%w: an older build's frame", errV3Malformed)

func olderFrameError(field string, b byte) error {
	return fmt.Errorf("%w (%s 0x%02x): re-write a run directory with `cellsim -o` from its scenario document; a collector store is read by the build that wrote it",
		errV3Older, field, b)
}

// ---------------------------------------------------------------------------
// Pools. The frame builder and its buffers survive across batches; only
// decoded events escape.

// v3Enc builds one frame: events are encoded into the event section as
// they arrive (appendEvent), interning their stations as they go, and seal
// writes the header and the cell table in front of them. AppendBatchV3
// builds a whole batch at once through a pooled builder; an Uploader
// keeps one as its pending buffer, so Record encodes and Flush only
// seals.
type v3Enc struct {
	payload []byte // seal's header scratch
	events  []byte // the encoded event records, oldest first
	n       int    // events in the event section
	prev    uint64 // DeviceID of the last event (the batch's before the first)
	// The rest of the last event's context as ctxKey packs it, and its
	// Start: what a same-context record leaves out and steps from.
	ctx   uint64
	start time.Duration
	// frame is an Uploader's spare frame buffer: its last acked frame,
	// emptied, which the next seal writes into.
	frame []byte
	// bad names the first event no reader would accept, which seal refuses
	// to frame; nil while there is none.
	bad   error
	cells []stationKey // the cell table: each station's key, in order of first use
	// slots indexes cells: an open-addressed table, a power of two long
	// and at most half full, whose filled slots carry gen. Bumping gen
	// empties it in O(1), so a frame of any size interns through it.
	slots []cellSlot
	gen   uint32
}

// v3Station is one entry of a decoded frame's cell table: a cell and the
// Region, RAT and DenseBS an event saw it under.
type v3Station struct {
	cell   telephony.CellIdentity
	region geo.Region
	rat    telephony.RAT
	dense  bool
}

// stationKey packs every bit of a station into two words: MCC<<48 |
// MNC<<32 | LAC, and CID | CDMA<<32 | Region<<33 | RAT<<41 | DenseBS<<49.
// It is exact where telephony's GlobalID is not: two cells that differ
// only above the low 16 bits of their LAC or CID share a GlobalID, and a
// frame must still list them as two cells.
type stationKey struct{ k0, k1 uint64 }

// cellSlot is one slot of a builder's station index: a station's key and
// its place in the cell table.
type cellSlot struct {
	key stationKey
	gen uint32 // the builder's gen when filled; any other value is empty
	idx uint32
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

// keyOf returns the key of e's station.
func keyOf(e *failure.Event) stationKey {
	c := &e.Cell
	k1 := uint64(c.CID) | uint64(e.Region)<<33 | uint64(e.RAT)<<41
	if c.CDMA {
		k1 |= 1 << 32
	}
	if e.DenseBS {
		k1 |= 1 << 49
	}
	return stationKey{uint64(c.MCC)<<48 | uint64(c.MNC)<<32 | uint64(c.LAC), k1}
}

// hash mixes k through one 64×64→128-bit multiply, so every bit of either
// word reaches the low bits a slot index is masked from.
func (k stationKey) hash() int {
	hi, lo := bits.Mul64(k.k0^0x9e3779b97f4a7c15, k.k1^0xbf58476d1ce4e5b9)
	return int(hi ^ lo)
}

// cellIndex returns the index of e's station in the frame's cell table,
// appending it when it is new. An index the new station would fill past
// half is doubled instead, and every listed station is indexed again.
func (enc *v3Enc) cellIndex(e *failure.Event) int {
	k := keyOf(e)
	mask := len(enc.slots) - 1
	i := k.hash() & mask
	for ; enc.slots[i].gen == enc.gen; i = (i + 1) & mask {
		if enc.slots[i].key == k {
			return int(enc.slots[i].idx)
		}
	}
	idx := len(enc.cells)
	if enc.cells = append(enc.cells, k); 2*len(enc.cells) <= len(enc.slots) {
		enc.slots[i] = cellSlot{key: k, gen: enc.gen, idx: uint32(idx)}
		return idx
	}
	enc.slots = make([]cellSlot, 2*len(enc.slots))
	mask = len(enc.slots) - 1
	for j, k := range enc.cells {
		i := k.hash() & mask
		for enc.slots[i].gen == enc.gen {
			i = (i + 1) & mask
		}
		enc.slots[i] = cellSlot{key: k, gen: enc.gen, idx: uint32(j)}
	}
	return idx
}

// Bits of an event record's head byte, of its packed byte (Kind and Level
// in the low 6 bits), and of a station's first varint (below the LAC) and
// its station byte (Region and RAT in the low 6 bits).
const (
	v3EvSeconds    = 1 << 0 // Duration is a positive whole number of seconds, written in seconds
	v3EvArrive     = 1 << 1 // the transition arrives at the event's RAT and level: one byte of where it came from
	v3EvResolved   = 1 << 2
	v3EvOps        = 1 << 3
	v3EvAutoFix    = 1 << 4
	v3EvTransition = 1 << 5
	v3EvSame       = 1 << 6 // the six context fields are the previous record's, and Start is not earlier
	v3EvWide       = 1 << 7 // a Kind or Level byte past 7, which no enum defines: raw bytes instead of the packed byte

	v3PackCause = 1 << 6
	v3PackZero  = 1 << 7 // must be zero

	v3CellCDMA     = 1 << 0
	v3CellSamePLMN = 1 << 1 // MCC and MNC are the previous station's
	v3CellDense    = 1 << 6
	v3CellWide     = 1 << 7 // a Region or RAT byte past 7: the two raw bytes follow, and the bits below DenseBS are zero

	v3MaxSeconds = math.MaxInt64 / uint64(time.Second) // the longest Duration in whole seconds
)

// validTransition reports whether tr names only defined RATs and signal
// levels: the encoder's and the decoder's one test of a transition.
func validTransition(tr *failure.TransitionInfo) bool {
	return tr.FromRAT <= telephony.RAT5G && tr.ToRAT <= telephony.RAT5G && tr.FromLevel.Valid() && tr.ToLevel.Valid()
}

// undefinedTransition is seal's error for a batch whose event i carries
// tr, kept out of appendEvent so the per-event path holds no fmt call.
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
// that does not repeat the previous one's context codes its DeviceID as
// the delta from the previous event's (the batch DeviceID's for the
// first), since a batch is usually one device's or one shard's events.
// The section grows once, by the longest record and the 8 bytes a word
// store may write past it, and every field is written in place.
func (enc *v3Enc) appendEvent(e *failure.Event) {
	var head byte
	dur := zigzag(int64(e.Duration))
	if secs := uint64(e.Duration) / uint64(time.Second); e.Duration > 0 && secs*uint64(time.Second) == uint64(e.Duration) {
		head, dur = v3EvSeconds, secs
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
	tr := &e.Transition
	if e.HasTransition {
		head |= v3EvTransition
		if tr.ToRAT == e.RAT && tr.ToLevel == e.Level {
			head |= v3EvArrive
		}
	}
	if uint8(e.Kind)|uint8(e.Level) > 7 {
		head |= v3EvWide
	}
	ctx, start := ctxKey(e), zigzag(int64(e.Start))
	if enc.n > 0 && e.DeviceID == enc.prev && ctx == enc.ctx && e.Start >= enc.start {
		head, start = head|v3EvSame, uint64(e.Start-enc.start)
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
		p = putUvarint(b, p+1, ctx>>32)
	}
	p = putUvarint(b, p, uint64(enc.cellIndex(e)))
	if head&v3EvWide == 0 {
		b[p] = byte(e.Kind) | byte(e.Level)<<3
		p++
		if e.Cause != 0 { // most causes are codes past 63: multi-byte
			b[p-1] |= v3PackCause
			p = putUvarintLong(b, p, zigzag(int64(e.Cause)))
		}
	} else {
		b[p], b[p+1] = byte(e.Kind), byte(e.Level)
		p = putUvarint(b, p+2, zigzag(int64(e.Cause)))
	}
	// Start and Duration count nanoseconds or seconds: multi-byte in any
	// real event, and so is most steps' count.
	p = putUvarintLong(b, p, start)
	p = putUvarintLong(b, p, dur)
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
		if !validTransition(tr) && enc.bad == nil {
			enc.bad = undefinedTransition(enc.n, tr)
		}
		if head&v3EvArrive != 0 {
			b[p] = byte(tr.FromRAT) | byte(tr.FromLevel)<<3
			p++
		} else {
			v := uint(tr.FromRAT) | uint(tr.ToRAT)<<3 | uint(tr.FromLevel)<<6 | uint(tr.ToLevel)<<9
			b[p], b[p+1] = byte(v), byte(v>>8)
			p += 2
		}
	}
	enc.events = b[:p]
	enc.n++
	enc.prev, enc.ctx, enc.start = e.DeviceID, ctx, e.Start
}

// ctxKey packs the context besides DeviceID into one word: ModelID,
// AndroidVersion and ISP in the low 32 bits, APN<<1 | FiveGCapable above.
func ctxKey(e *failure.Event) uint64 {
	k := uint64(e.ModelID) | uint64(e.AndroidVersion)<<16 | uint64(e.ISP)<<24 | uint64(e.APN)<<33
	if e.FiveGCapable {
		k |= 1 << 32
	}
	return k
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
	for i, k := range enc.cells {
		v := uint64(uint32(k.k0))<<2 | k.k1>>32&v3CellCDMA
		same := i > 0 && k.k0>>32 == enc.cells[i-1].k0>>32
		if same {
			v |= v3CellSamePLMN
		}
		h = binary.AppendUvarint(h, v)
		if !same {
			h = binary.AppendUvarint(h, k.k0>>48)
			h = binary.AppendUvarint(h, k.k0>>32&math.MaxUint16)
		}
		h = binary.AppendUvarint(h, uint64(uint32(k.k1)))
		region, rat, dense := byte(k.k1>>33), byte(k.k1>>41), byte(k.k1>>49)*v3CellDense
		if region|rat > 7 {
			h = append(h, dense|v3CellWide, region, rat)
		} else {
			h = append(h, dense|region|rat<<3)
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
// present) is longer than a station or the three varints of the frame
// header.
const v3MaxRecordBytes = 1 + 4*binary.MaxVarintLen64 + 1 + binary.MaxVarintLen64 + 2 +
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
// phone's frame names a handful of stations. A frame of more cells, a bulk
// upload's, reads its cell table into one from v3CellsPool.
const (
	v3StackCells = 16
	// v3EventsChunk is the most events a frame's own events slice holds
	// before any record is read (576 KiB): past a run directory's
	// 4 096-event frames, so only a larger frame grows its slice.
	v3EventsChunk = 1 << 13
	// v3MaxPooledCells bounds the cell table v3CellsPool takes back
	// (160 KiB): a larger one, a shard-sized frame's, is dropped.
	v3MaxPooledCells = 1 << 13
)

// v3CellsPool recycles decodeBatchV3's cell tables past v3StackCells.
var v3CellsPool = sync.Pool{New: func() any { return new([]v3Station) }}

// getCells returns an empty pooled cell table with room for n stations.
func getCells(n int) *[]v3Station {
	p := v3CellsPool.Get().(*[]v3Station)
	if cap(*p) < n {
		*p = make([]v3Station, 0, n)
	}
	*p = (*p)[:0]
	return p
}

func putCells(p *[]v3Station) {
	if cap(*p) <= v3MaxPooledCells {
		v3CellsPool.Put(p)
	}
}

// decodeBatchV3 parses one v3 payload, filling b only on success. Every
// count is bounded by the bytes present, so a corrupt frame can neither
// panic nor drive an allocation bomb. A value that does not fit its field,
// a bit the layout keeps zero that is set, an arrives-here bit without a
// transition, a transition naming an undefined RAT or level, and a first
// event or station that claims a previous one's context or network are
// malformed, never truncated. The events go into b.Events'
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
	var cellBuf [v3StackCells]v3Station
	cells := cellBuf[:]
	if nCells > v3StackCells {
		// nCells is bounded by the bytes present, checked above, before
		// it sizes a table.
		tp := getCells(int(nCells))
		defer putCells(tp)
		cells = *tp
	}
	// Every field of every station is written below.
	cells = cells[:nCells]
	var mcc, mnc uint64 // the previous station's, which a same-PLMN station repeats
	for i := range cells {
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
			return errV3Malformed // no previous station to repeat
		}
		if cid, p = uvarintAt(buf, p); p < 0 || cid > math.MaxUint32 {
			return errV3Malformed
		}
		st := &cells[i]
		st.cell.MCC, st.cell.MNC, st.cell.LAC, st.cell.CID, st.cell.CDMA = uint16(mcc), uint16(mnc), uint32(u>>2), uint32(cid), u&v3CellCDMA != 0
		sb := buf[p]
		st.region, st.rat, st.dense = geo.Region(sb&7), telephony.RAT(sb>>3&7), sb&v3CellDense != 0
		p++
		if sb&v3CellWide != 0 {
			if sb&(v3CellDense-1) != 0 {
				return errV3Malformed
			}
			st.region, st.rat = geo.Region(buf[p]), telephony.RAT(buf[p+1])
			p += 2
		}
		if p > end {
			return errV3Malformed
		}
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
	// own. The count is bounded only by the bytes present, up to 13 M
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
		apn   telephony.APN
		fiveG bool
		start time.Duration
	)
	for i := 0; i < int(nEvents); i++ {
		if i == len(events) {
			events = append(events, make([]failure.Event, min(int(nEvents)-i, i))...)
		}
		buf, p, end = slack(buf, p, end, &tail)
		e := &events[i]
		head := buf[p]
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
			if u, p = uvarintAt(buf, p+1); p < 0 || u > 2*math.MaxUint8+1 {
				return errV3Malformed
			}
			apn, fiveG = telephony.APN(u>>1), u&1 != 0
		} else if i == 0 {
			return errV3Malformed // no previous record to repeat
		}
		e.DeviceID, e.ModelID, e.AndroidVersion, e.ISP, e.APN, e.FiveGCapable = dev, model, av, isp, apn, fiveG
		if u, p = uvarintAt(buf, p); p < 0 || u >= uint64(len(cells)) {
			return errV3Malformed
		}
		st := &cells[u]
		e.Cell, e.Region, e.RAT, e.DenseBS = st.cell, st.region, st.rat, st.dense
		e.Cause = 0
		if head&v3EvWide == 0 {
			v := buf[p]
			if v&v3PackZero != 0 {
				return errV3Malformed
			}
			e.Kind, e.Level = failure.Kind(v&7), telephony.SignalLevel(v>>3&7)
			p++
			if v&v3PackCause != 0 { // a code past 63, mostly: multi-byte
				if u, p = uvarintLong(buf, p); p < 0 {
					return errV3Malformed
				}
				e.Cause = telephony.FailCause(unzigzag(u))
			}
		} else {
			e.Kind, e.Level = failure.Kind(buf[p]), telephony.SignalLevel(buf[p+1])
			if u, p = uvarintAt(buf, p+2); p < 0 {
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
			start = time.Duration(unzigzag(u))
		} else {
			start += time.Duration(u)
		}
		e.Start = start
		if u, p = uvarintLong(buf, p); p < 0 {
			return errV3Malformed
		}
		if head&v3EvSeconds == 0 {
			e.Duration = time.Duration(unzigzag(u))
		} else if u-1 < v3MaxSeconds {
			e.Duration = time.Duration(u) * time.Second
		} else {
			return errV3Malformed
		}
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
			tr := &e.Transition
			*tr = failure.TransitionInfo{
				FromRAT: telephony.RAT(v & 7), ToRAT: telephony.RAT(v >> 3 & 7),
				FromLevel: telephony.SignalLevel(v >> 6 & 7), ToLevel: telephony.SignalLevel(v >> 9 & 7),
			}
			p += 2
			if head&v3EvArrive != 0 { // one byte, FromRAT | FromLevel<<3
				v &= 0xFF
				tr.ToRAT, tr.FromLevel, tr.ToLevel = e.RAT, telephony.SignalLevel(v>>3&7), e.Level
				p--
			}
			if v>>12 != 0 || head&v3EvArrive != 0 && v>>6 != 0 || !validTransition(tr) {
				return errV3Malformed
			}
			e.HasTransition = true
		} else if head&v3EvArrive != 0 {
			return errV3Malformed // no transition to arrive
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
// than 0xA6 or a flags byte other than 0 is a malformed frame, a tag from
// 0xA3 to 0xA5 or a non-zero flags byte errV3Older even when the header is
// cut short after it; io.EOF is returned only for a stream ending cleanly
// at a frame boundary.
func ReadFrameRaw(br *bufio.Reader, buf []byte, b *Batch) (raw []byte, err error) {
	tag, err := br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("trace: read batch tag: %w", err)
	}
	if tag >= versionV3First && tag < versionV3 {
		return nil, olderFrameError("tag", tag)
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
		return nil, olderFrameError("flags byte", hdr[0])
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
