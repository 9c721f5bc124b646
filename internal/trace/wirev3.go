package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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
//	frame   = versionV3 byte (0xA3) ++ flags byte ++ uint32 BE body len
//	          ++ body
//	body    = payload, or gzip(payload) when flags&v3FlagGzip != 0
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
// Compression is a per-frame flag: payloads under v3CompressMin bytes
// skip gzip entirely (a small batch spends more cycles on deflate setup
// than it saves on the wire), larger ones use a pooled BestSpeed writer.
// Encode and decode scratch — buffers, intern tables, gzip state — is
// recycled through sync.Pools, so a steady-state uploader or collector
// allocates only the decoded events themselves.
//
// It is the only format: uploads, spill WALs and segment files all hold
// these frames, and a first byte other than 0xA3 is a malformed frame to
// every reader.
const (
	// versionV3 prefixes every v3 upload frame.
	versionV3 = 0xA3
	// v3FlagGzip marks a gzip-compressed body.
	v3FlagGzip = 0x01
	// v3CompressMin is the raw payload size below which the encoder skips
	// gzip. The binary payload is already compact — interned tables,
	// delta-coded varints, no type descriptors — so deflate buys roughly
	// 2x the bytes at roughly 10x the CPU of the encode itself. On the
	// CPU-bound ingest path that trade only pays off for large frames
	// (multi-thousand-event batches, run dumps and spill files); typical
	// per-device upload batches ship raw.
	v3CompressMin = 1 << 15
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

// ---------------------------------------------------------------------------
// Pools. The encoder scratch, the frame/payload buffers, and the gzip
// state survive across batches; only decoded events escape.

// v3Enc is one encoder's reusable scratch: the event-section buffer, the
// assembled payload, and the intern tables.
type v3Enc struct {
	payload []byte
	events  []byte
	frame   []byte
	apns    []telephony.APN
	cells   []telephony.CellIdentity
	cellIdx map[telephony.CellIdentity]int
}

var v3EncPool = sync.Pool{New: func() any {
	return &v3Enc{cellIdx: make(map[telephony.CellIdentity]int, 64)}
}}

func (enc *v3Enc) reset() {
	enc.payload = enc.payload[:0]
	enc.events = enc.events[:0]
	enc.frame = enc.frame[:0]
	enc.apns = enc.apns[:0]
	if len(enc.cells) > 0 {
		clear(enc.cellIdx)
		enc.cells = enc.cells[:0]
	}
}

// gzipSpeedPool recycles BestSpeed writers for the v3 body.
var gzipSpeedPool = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
	return zw
}}

// scratchPool recycles byte slices for compressed bodies and decode
// buffers.
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

func (enc *v3Enc) internCell(c telephony.CellIdentity) int {
	if i, ok := enc.cellIdx[c]; ok {
		return i
	}
	i := len(enc.cells)
	enc.cells = append(enc.cells, c)
	enc.cellIdx[c] = i
	return i
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

// appendEvent encodes one event into the scratch event section. prevDev
// is the previous event's DeviceID (the batch DeviceID for the first
// event); device IDs are delta-coded since a batch is usually one
// device's — or one shard's contiguous range of — events.
func (enc *v3Enc) appendEvent(e *failure.Event, prevDev uint64) {
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
	b = binary.AppendUvarint(b, zigzag(int64(e.DeviceID-prevDev)))
	b = binary.AppendUvarint(b, zigzag(int64(e.ModelID)))
	b = binary.AppendUvarint(b, zigzag(int64(e.AndroidVersion)))
	b = append(b, byte(e.ISP))
	b = binary.AppendUvarint(b, uint64(enc.internCell(e.Cell)))
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
}

// AppendBatchV3 appends one complete v3 wire frame (tag, flags, length,
// body) for b to dst and returns the extended slice. Encoder scratch and
// gzip state come from pools, so steady-state encoding does not allocate
// beyond dst's growth.
func AppendBatchV3(dst []byte, b *Batch) ([]byte, error) {
	enc := v3EncPool.Get().(*v3Enc)
	defer v3EncPool.Put(enc)
	enc.reset()

	prev := b.DeviceID
	for i := range b.Events {
		enc.appendEvent(&b.Events[i], prev)
		prev = b.Events[i].DeviceID
	}

	p := enc.payload
	p = binary.AppendUvarint(p, b.DeviceID)
	p = binary.AppendUvarint(p, b.Seq)
	p = binary.AppendUvarint(p, uint64(len(enc.apns)))
	for _, a := range enc.apns {
		s := a.String()
		p = binary.AppendUvarint(p, uint64(len(s)))
		p = append(p, s...)
	}
	p = binary.AppendUvarint(p, uint64(len(enc.cells)))
	for _, c := range enc.cells {
		p = binary.AppendUvarint(p, uint64(c.MCC))
		p = binary.AppendUvarint(p, uint64(c.MNC))
		p = binary.AppendUvarint(p, uint64(c.LAC))
		p = binary.AppendUvarint(p, uint64(c.CID))
		if c.CDMA {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
	}
	p = binary.AppendUvarint(p, uint64(len(b.Events)))
	p = append(p, enc.events...)
	enc.payload = p
	if len(p) > maxBatchWire {
		return dst, fmt.Errorf("trace: batch payload %d bytes exceeds wire limit %d; split the batch", len(p), maxBatchWire)
	}

	body := p
	var flags byte
	if len(p) >= v3CompressMin {
		zw := gzipSpeedPool.Get().(*gzip.Writer)
		enc.frame = enc.frame[:0]
		fw := (*bytesBuffer)(&enc.frame)
		zw.Reset(fw)
		if _, err := zw.Write(p); err != nil {
			gzipSpeedPool.Put(zw)
			return dst, fmt.Errorf("trace: compress batch: %w", err)
		}
		if err := zw.Close(); err != nil {
			gzipSpeedPool.Put(zw)
			return dst, fmt.Errorf("trace: compress batch: %w", err)
		}
		gzipSpeedPool.Put(zw)
		if len(enc.frame) < len(p) {
			body = enc.frame
			flags = v3FlagGzip
		}
	}
	if len(body) > maxBatchWire {
		return dst, fmt.Errorf("trace: batch payload %d bytes exceeds wire limit %d; split the batch", len(body), maxBatchWire)
	}

	dst = append(dst, versionV3, flags)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	dst = append(dst, hdr[:]...)
	return append(dst, body...), nil
}

// WriteBatchV3 writes one v3 frame to w, returning its wire size.
func WriteBatchV3(w io.Writer, b *Batch) (int, error) {
	fp := getScratch(256)
	defer putScratch(fp)
	frame, err := AppendBatchV3((*fp)[:0], b)
	if err != nil {
		return 0, err
	}
	*fp = frame
	if _, err := w.Write(frame); err != nil {
		return 0, err
	}
	return len(frame), nil
}

// ---------------------------------------------------------------------------
// Decoding.

// v3cur is a bounds-checked cursor over a decoded payload.
type v3cur struct {
	b   []byte
	off int
}

func (c *v3cur) remaining() int { return len(c.b) - c.off }

func (c *v3cur) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, errV3Malformed
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *v3cur) uvarint() (uint64, error) {
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

func (c *v3cur) varint() (int64, error) {
	u, err := c.uvarint()
	return unzigzag(u), err
}

// v3StackStrs and v3StackCells bound the intern tables decodeBatchV3 keeps
// on its stack: a phone's frame names one or two APNs and a handful of
// cells, so only a shard-sized frame pays for a heap table.
const (
	v3StackStrs  = 4
	v3StackCells = 16
)

// decodeBatchV3 parses one raw (decompressed) v3 payload. Every count is
// bounded by the bytes actually present, so a corrupt frame can neither
// panic nor drive an allocation bomb, and every value must fit the field
// it lands in: a ModelID, AndroidVersion or OpsExecuted out of range, an
// APN name that is not a telephony.APN, and a transition naming an
// undefined RAT or signal level are malformed, never truncated. It
// allocates the batch and its events.
func decodeBatchV3(payload []byte) (*Batch, error) {
	cur := v3cur{b: payload}
	b := &Batch{}
	var err error
	if b.DeviceID, err = cur.uvarint(); err != nil {
		return nil, err
	}
	if b.Seq, err = cur.uvarint(); err != nil {
		return nil, err
	}

	nStrs, err := cur.uvarint()
	if err != nil || nStrs > uint64(cur.remaining()) {
		return nil, errV3Malformed
	}
	var strBuf [v3StackStrs]telephony.APN
	strs := strBuf[:0]
	if nStrs > v3StackStrs {
		strs = make([]telephony.APN, 0, nStrs)
	}
	for i := uint64(0); i < nStrs; i++ {
		n, err := cur.uvarint()
		if err != nil || n > uint64(cur.remaining()) {
			return nil, errV3Malformed
		}
		apn, ok := telephony.ParseAPN(cur.b[cur.off : cur.off+int(n)])
		if !ok {
			return nil, errV3Malformed
		}
		strs = append(strs, apn)
		cur.off += int(n)
	}

	nCells, err := cur.uvarint()
	if err != nil || nCells > uint64(cur.remaining()/v3MinCellBytes) {
		return nil, errV3Malformed
	}
	var cellBuf [v3StackCells]telephony.CellIdentity
	cells := cellBuf[:0]
	if nCells > v3StackCells {
		cells = make([]telephony.CellIdentity, 0, nCells)
	}
	for i := uint64(0); i < nCells; i++ {
		var c telephony.CellIdentity
		mcc, err := cur.uvarint()
		if err != nil || mcc > 0xFFFF {
			return nil, errV3Malformed
		}
		mnc, err := cur.uvarint()
		if err != nil || mnc > 0xFFFF {
			return nil, errV3Malformed
		}
		lac, err := cur.uvarint()
		if err != nil || lac > 0xFFFFFFFF {
			return nil, errV3Malformed
		}
		cid, err := cur.uvarint()
		if err != nil || cid > 0xFFFFFFFF {
			return nil, errV3Malformed
		}
		cdma, err := cur.byte()
		if err != nil || cdma > 1 {
			return nil, errV3Malformed
		}
		c.MCC, c.MNC, c.LAC, c.CID, c.CDMA = uint16(mcc), uint16(mnc), uint32(lac), uint32(cid), cdma == 1
		cells = append(cells, c)
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
	prevDev := b.DeviceID
	for i := range events {
		e := &events[i]
		kind, err := cur.byte()
		if err != nil {
			return nil, err
		}
		flags, err := cur.byte()
		if err != nil || flags&^byte(v3EvKnownBits) != 0 {
			return nil, errV3Malformed
		}
		e.Kind = failure.Kind(kind)
		e.FiveGCapable = flags&v3EvFiveG != 0
		e.DenseBS = flags&v3EvDenseBS != 0
		dd, err := cur.varint()
		if err != nil {
			return nil, err
		}
		e.DeviceID = prevDev + uint64(dd)
		prevDev = e.DeviceID
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
		ci, err := cur.uvarint()
		if err != nil || ci >= uint64(len(cells)) {
			return nil, errV3Malformed
		}
		e.Cell = cells[ci]
		region, err := cur.byte()
		if err != nil {
			return nil, err
		}
		e.Region = geo.Region(region)
		rat, err := cur.byte()
		if err != nil {
			return nil, err
		}
		e.RAT = telephony.RAT(rat)
		level, err := cur.byte()
		if err != nil {
			return nil, err
		}
		e.Level = telephony.SignalLevel(level)
		si, err := cur.uvarint()
		if err != nil || si >= uint64(len(strs)) {
			return nil, errV3Malformed
		}
		e.APN = strs[si]
		cause, err := cur.varint()
		if err != nil {
			return nil, err
		}
		e.Cause = telephony.FailCause(cause)
		start, err := cur.varint()
		if err != nil {
			return nil, err
		}
		e.Start = time.Duration(start)
		dur, err := cur.varint()
		if err != nil {
			return nil, err
		}
		e.Duration = time.Duration(dur)
		if flags&v3EvResolved != 0 {
			rb, err := cur.byte()
			if err != nil {
				return nil, err
			}
			e.ResolvedBy = android.ResolvedBy(rb)
		}
		if flags&v3EvOps != 0 {
			ops, err := cur.varint()
			if err != nil || ops < 0 || ops > math.MaxUint8 {
				return nil, errV3Malformed
			}
			e.OpsExecuted = uint8(ops)
		}
		if flags&v3EvAutoFix != 0 {
			af, err := cur.varint()
			if err != nil {
				return nil, err
			}
			e.AutoFixTime = time.Duration(af)
		}
		if flags&v3EvTransition != 0 {
			fr, err := cur.byte()
			if err != nil {
				return nil, err
			}
			to, err := cur.byte()
			if err != nil {
				return nil, err
			}
			fl, err := cur.byte()
			if err != nil {
				return nil, err
			}
			tl, err := cur.byte()
			if err != nil {
				return nil, err
			}
			tr := failure.TransitionInfo{
				FromRAT: telephony.RAT(fr), ToRAT: telephony.RAT(to),
				FromLevel: telephony.SignalLevel(fl), ToLevel: telephony.SignalLevel(tl),
			}
			if tr.FromRAT > telephony.RAT5G || tr.ToRAT > telephony.RAT5G || !tr.FromLevel.Valid() || !tr.ToLevel.Valid() {
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

// v3HeaderLen is the fixed frame prefix: tag, flags, uint32 BE body length.
const v3HeaderLen = 6

// ReadFrameRaw reads one frame from br into buf (grown when too small) and
// decodes it. raw holds the frame exactly as received — tag, flags,
// length, body — so a store can append the very bytes that were validated
// instead of re-encoding the batch; it aliases buf's storage and stays
// valid only until that storage is reused (pass raw[:0] as the next call's
// buf). The batch shares nothing with raw. A first byte other than 0xA3 is
// a malformed frame; io.EOF is returned only for a stream ending cleanly
// at a frame boundary.
func ReadFrameRaw(br *bufio.Reader, buf []byte) (b *Batch, raw []byte, err error) {
	tag, err := br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return nil, nil, io.EOF
		}
		return nil, nil, fmt.Errorf("trace: read batch tag: %w", err)
	}
	if tag != versionV3 {
		return nil, nil, fmt.Errorf("%w: tag 0x%02x", errV3Malformed, tag)
	}
	var hdr [v3HeaderLen]byte
	hdr[0] = tag
	if _, err := io.ReadFull(br, hdr[1:]); err != nil {
		return nil, nil, fmt.Errorf("trace: read v3 batch header: %w", err)
	}
	flags := hdr[1]
	if flags&^byte(v3FlagGzip) != 0 {
		return nil, nil, errV3Malformed
	}
	n := binary.BigEndian.Uint32(hdr[2:])
	if n == 0 || n > maxBatchWire {
		return nil, nil, fmt.Errorf("trace: implausible v3 batch size %d", n)
	}
	if total := v3HeaderLen + int(n); cap(buf) < total {
		buf = make([]byte, total)
	} else {
		buf = buf[:total]
	}
	copy(buf, hdr[:])
	body := buf[v3HeaderLen:]
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, nil, fmt.Errorf("trace: read v3 batch payload: %w", err)
	}

	payload := body
	if flags&v3FlagGzip != 0 {
		zr, err := getGzipReader(bytes.NewReader(body))
		if err != nil {
			return nil, nil, fmt.Errorf("trace: decompress v3 batch: %w", err)
		}
		rawP := getScratch(4 * int(n))
		defer putScratch(rawP)
		*rawP, err = readAllLimit((*rawP)[:0], zr, maxBatchWire)
		putGzipReader(zr)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: decompress v3 batch: %w", err)
		}
		payload = *rawP
	}
	if b, err = decodeBatchV3(payload); err != nil {
		return nil, nil, err
	}
	return b, buf, nil
}

// readAllLimit appends r's contents to dst, erroring past limit bytes —
// the decompression-bomb guard for v3 bodies.
func readAllLimit(dst []byte, r io.Reader, limit int) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst) > limit {
			return dst, fmt.Errorf("trace: v3 payload exceeds %d-byte limit", limit)
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// gzipReaderPool recycles inflate state across frames.
var gzipReaderPool = sync.Pool{New: func() any { return new(gzip.Reader) }}

func getGzipReader(r io.Reader) (*gzip.Reader, error) {
	zr := gzipReaderPool.Get().(*gzip.Reader)
	if err := zr.Reset(r); err != nil {
		gzipReaderPool.Put(zr)
		return nil, err
	}
	return zr, nil
}

func putGzipReader(zr *gzip.Reader) {
	zr.Close()
	gzipReaderPool.Put(zr)
}

// ReadBatchAny reads one frame from br through a pooled buffer. It returns
// the batch, the total wire bytes consumed (including the tag byte), and
// DialectV3; errors are ReadFrameRaw's.
func ReadBatchAny(br *bufio.Reader) (*Batch, int, Dialect, error) {
	fp := getScratch(0)
	defer putScratch(fp)
	b, raw, err := ReadFrameRaw(br, *fp)
	if err != nil {
		return nil, 0, 0, err
	}
	*fp = raw
	return b, len(raw), DialectV3, nil
}
