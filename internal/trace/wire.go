package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/failure"
)

// Upload wire protocol.
//
// One frame per upload (the v3 encoding of wirev3.go), one fixed-size
// reply per frame. The path is at-least-once *and* duplicate-free:
//
//	frame  = AppendBatchV3 frame (first byte 0xA6), Batch.Seq >= 1
//	reply  = kind byte (ack 0x06 / nack 0x15 / redirect 0x17) ++
//	         seq uint64 BE ++ retry-after milliseconds uint32 BE
//
// Every batch carries (DeviceID, Seq); Seq is assigned once when the
// batch is sealed and reused verbatim on every retry. The collector keeps
// a per-device high-water mark of acknowledged sequence numbers: a
// re-sent batch (Seq <= mark) is acknowledged again without re-appending,
// so a retry after a lost ack cannot duplicate events. A nack tells the
// device the collector refused the batch (overload shedding) and how long
// to back off before retrying. A frame that does not start with 0xA6, or
// that carries Seq == 0 (it could never be deduplicated), is malformed:
// the collector drops the connection without replying.
const (
	// batchAck / batchNack are the reply kind bytes.
	batchAck  = 0x06
	batchNack = 0x15
	// batchWrongCollector is the redirect nack: the collector decoded the
	// batch but refuses it because, per its ring view, it does not own the
	// batch's device. The reply reuses the nack frame layout (seq +
	// retry-after floor); the collector closes its side afterwards. A
	// ring-aware uploader re-resolves the device's owner and retargets;
	// an uploader predating this kind treats the reply as malformed and
	// falls back to its ordinary retry/backoff path.
	batchWrongCollector = 0x17
	// replyLen is the fixed reply size: kind + seq + retry-after ms.
	replyLen = 1 + 8 + 4
)

// Wire-protocol errors surfaced by Uploader.Flush.
var (
	// ErrBadAck reports a well-formed acknowledgement for the wrong
	// sequence number — a protocol violation, not a transient fault.
	ErrBadAck = errors.New("trace: collector acknowledged the wrong batch")
	// ErrAckLost reports that the connection died between delivering a
	// batch and reading its acknowledgement. The batch may or may not be
	// stored; the uploader must retry and rely on collector-side dedup.
	ErrAckLost = errors.New("trace: connection lost before the batch acknowledgement")
	// ErrNoWiFi reports a flush attempted without WiFi connectivity (the
	// paper's uploads are WiFi-gated).
	ErrNoWiFi = errors.New("trace: no WiFi connectivity")
	// ErrWrongCollector reports a redirect nack: the collector refused the
	// batch because it does not own the batch's device under the routing
	// ring. The batch was not stored; the uploader should re-resolve the
	// device's owner (Retarget / TargetRouter) and retry there.
	ErrWrongCollector = errors.New("trace: collector does not own this device")
)

// NackError is returned by Flush when the collector explicitly refused a
// batch (overload shedding). RetryAfter is the collector's suggested
// backoff floor.
type NackError struct {
	RetryAfter time.Duration
}

func (e *NackError) Error() string {
	return fmt.Sprintf("trace: collector refused batch, retry after %v", e.RetryAfter)
}

// replyBuf holds one reply frame. A buffer handed to an io.Writer or
// io.Reader escapes to the heap, so each connection and each uploader owns
// one and reuses it for every reply instead of allocating one per frame.
type replyBuf [replyLen]byte

// writeReply emits one reply frame through buf.
func writeReply(w io.Writer, buf *replyBuf, kind byte, seq uint64, retryAfter time.Duration) error {
	buf[0] = kind
	binary.BigEndian.PutUint64(buf[1:9], seq)
	ms := retryAfter.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > int64(^uint32(0)) {
		ms = int64(^uint32(0))
	}
	binary.BigEndian.PutUint32(buf[9:], uint32(ms))
	_, err := w.Write(buf[:])
	return err
}

// readReply reads one reply frame into buf.
func readReply(r io.Reader, buf *replyBuf) (kind byte, seq uint64, retryAfter time.Duration, err error) {
	if _, err = io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, 0, err
	}
	kind = buf[0]
	if kind != batchAck && kind != batchNack && kind != batchWrongCollector {
		return 0, 0, 0, fmt.Errorf("trace: malformed reply kind 0x%02x", kind)
	}
	seq = binary.BigEndian.Uint64(buf[1:9])
	retryAfter = time.Duration(binary.BigEndian.Uint32(buf[9:])) * time.Millisecond
	return kind, seq, retryAfter, nil
}

// UploadFaultClass is a transport fault the chaos harness can inject into
// one upload attempt. The classes mirror what a real device fleet sees:
// unreachable backends, connections severed before or after delivery, and
// slow links.
type UploadFaultClass uint8

// Upload fault classes.
const (
	// FaultNone leaves the attempt alone.
	FaultNone UploadFaultClass = iota
	// FaultDial simulates a collector outage: the attempt fails before a
	// connection is made.
	FaultDial
	// FaultAckLoss delivers the batch, then severs the connection before
	// the acknowledgement is read — the duplicate-risk case.
	FaultAckLoss
	// FaultTruncate severs the connection mid-frame, so the collector
	// sees a truncated batch and stores nothing.
	FaultTruncate
	// FaultSlow delays the send (a slow link); the attempt still
	// completes.
	FaultSlow
)

func (c UploadFaultClass) String() string {
	switch c {
	case FaultNone:
		return "none"
	case FaultDial:
		return "dial"
	case FaultAckLoss:
		return "ack-loss"
	case FaultTruncate:
		return "truncate"
	case FaultSlow:
		return "slow"
	default:
		return "unknown"
	}
}

// UploadChaos lets a fault injector intercept upload attempts. The
// uploader consults UploadFault exactly once per batch send attempt and
// reports every acknowledged batch through UploadOutcome, so the injector
// can account injected-vs-recovered faults deterministically.
type UploadChaos interface {
	// UploadFault returns the fault to apply to the device's next send
	// of the batch with the given sequence number.
	UploadFault(device, seq uint64) UploadFaultClass
	// UploadOutcome reports a completed attempt; acked is true when the
	// collector acknowledged the batch.
	UploadOutcome(device uint64, acked bool)
}

// chaosSlowDelay is the send delay a FaultSlow attempt sleeps.
const chaosSlowDelay = 15 * time.Millisecond

// Digest is an order-independent multiset digest over failure events:
// per-event SHA-256 hashes combined by wrapping word-wise addition.
// Because addition commutes, two event streams have equal digests iff
// they contain the same events with the same multiplicities, regardless
// of the order fleet workers or collector connections published them —
// exactly the property the chaos invariant "no loss, no duplication"
// needs to be checkable byte-for-byte across worker counts.
type Digest [4]uint64

// Add folds another digest in (commutative, associative).
func (d *Digest) Add(o Digest) {
	for i := range d {
		d[i] += o[i]
	}
}

// String renders the digest as 64 hex characters.
func (d Digest) String() string {
	return fmt.Sprintf("%016x%016x%016x%016x", d[0], d[1], d[2], d[3])
}

// eventFrameCap holds the longest one-event frame there is (91 bytes: a
// 10-byte DeviceID, a wide station of every identity field at its widest,
// a wide record, every optional field at its widest and a 2-byte
// transition), so EventDigest's buffer stays on its stack.
const eventFrameCap = 96

// EventDigest hashes one event with its full in-situ context: SHA-256 of
// the v3 frame AppendBatchV3 writes for the one-event batch {DeviceID:
// e.DeviceID, Seq: 0, Events: [e]}. The digest is a function of the wire
// record alone, so an event decoded from any frame has its sender's
// digest, and a field the wire does not carry (a Transition without
// HasTransition) does not enter it. An event no frame carries, whose
// transition names an undefined RAT or signal level, has the zero digest:
// no reader holds one, and it adds nothing to a multiset digest. With the
// encoder pool warm it allocates nothing.
func EventDigest(e *failure.Event) Digest {
	var buf [eventFrameCap]byte
	one := [1]failure.Event{*e}
	var d Digest
	// One event is far below maxBatchWire, so the only error is an
	// undefined transition.
	frame, err := AppendBatchV3(buf[:0], &Batch{DeviceID: e.DeviceID, Events: one[:]})
	if err != nil {
		return d
	}
	sum := sha256.Sum256(frame)
	for i := range d {
		d[i] = binary.BigEndian.Uint64(sum[8*i:])
	}
	return d
}

// MultisetDigest returns the order-independent digest of every stored
// event. Publishing the same events in any order or segmentation yields
// the same digest.
func (d *Dataset) MultisetDigest() Digest {
	var out Digest
	d.Each(func(e *failure.Event) { out.Add(EventDigest(e)) })
	return out
}
