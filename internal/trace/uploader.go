package trace

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/rng"
)

// Backoff defaults: the first failed flush waits ~100ms, doubling per
// consecutive failure up to 5s. Fleet runs override these via SetBackoff
// with scenario-scaled values and a seeded jitter stream.
const (
	defaultBackoffBase = 100 * time.Millisecond
	defaultBackoffMax  = 5 * time.Second
)

// Injected-fault sentinels, so tests and chaos accounting can tell an
// injected failure from a genuine network one in wrapped errors.
var (
	errInjectedOutage   = errors.New("injected collector outage")
	errInjectedTruncate = errors.New("injected mid-frame disconnect")
)

// Uploader buffers a device's events and uploads them to the collector
// only when WiFi is available, exactly like Android-MOD ("the recorded
// data are uploaded to our backend server only when there is WiFi
// connectivity").
//
// The pending buffer is the frame being built: Record encodes each event
// into it as a v3 record (a v3Enc, interning the event's APN and cell),
// so no event copy is kept and the backlog costs the event's wire bytes.
// Record never sends: the caller decides where a frame ends. Flush seals
// the pending buffer into a frame with a device-local sequence number,
// and a sealed frame is retained as its bytes until the collector
// acknowledges that exact sequence number. Every attempt at it, a retry
// or a redirect re-send, writes those same bytes, so an upload only
// writes and waits. Failed flushes arm an exponential-backoff timer with
// seeded jitter that RetryDelay reports; a caller that flushes as it
// goes skips a flush while it runs, so a dead collector is not hammered,
// and Flush itself always attempts.
//
// The target collector is no longer fixed at construction: Retarget
// switches the uploader to a new address mid-run (the open connection to
// the old collector is dropped lazily before the next send), and
// SetRouter installs a TargetRouter the uploader consults before every
// send so ring membership changes re-route the device without any
// per-uploader bookkeeping. A collector that does not own this device
// under the routing ring answers with a redirect nack (ErrWrongCollector);
// the uploader re-resolves the owner and retries there, falling back to
// the ordinary backoff machinery when the router still names the same
// target.
type Uploader struct {
	addr string // guarded by mu; see Retarget

	// Deprecated: FlushThreshold is read by nothing; Record never flushes.
	FlushThreshold int

	// sendMu serializes Flush so concurrent flushes cannot double-send;
	// it also guards the persistent connection and the reply buffer.
	sendMu sync.Mutex
	conn   net.Conn
	rd     *bufio.Reader
	reply  replyBuf // reused reply scratch, guarded by sendMu

	mu sync.Mutex
	// pending is the batch being built, taken from v3EncPool at the first
	// Record and put back by Close when it is empty; it also parks the
	// last acked frame's buffer for the next seal.
	pending     *v3Enc
	deviceID    uint64
	sealed      []sealedFrame // unacked frames, ascending Seq
	nextSeq     uint64
	wifi        bool
	sentBytes   int64
	uploads     int
	retries     int
	lastErr     error
	consecFails int
	backoffBase time.Duration
	backoffMax  time.Duration
	jitter      *rng.Source
	nextAttempt time.Time
	chaos       UploadChaos
	router      TargetRouter
	retargeted  bool // addr changed since the connection was dialed
	reroutes    int64
}

// sealedFrame is one sealed, unacknowledged batch: its sequence number,
// its event count and its wire frame. The frame is never written again
// before its ack.
type sealedFrame struct {
	seq    uint64
	events int
	frame  []byte
}

// TargetRouter resolves which collector address a device should upload
// to right now. Implementations (ring.Router) are consulted before every
// send, so membership changes re-route in-flight uploaders without the
// caller touching each one. Target must be safe for concurrent use and
// may return "" when no collector is known (the uploader then keeps its
// current address).
type TargetRouter interface {
	Target(device uint64) string
}

// NewUploader creates an uploader for a device targeting the collector at
// addr. The target can be changed later with Retarget or a SetRouter
// router.
func NewUploader(addr string, deviceID uint64) *Uploader {
	return &Uploader{addr: addr, deviceID: deviceID}
}

// Addr returns the collector address the next send will dial.
func (u *Uploader) Addr() string {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.addr
}

// Retarget points the uploader at a new collector address and reports
// whether the target actually changed. It is safe to call concurrently
// with a running Flush: only u.mu is taken (never sendMu), the in-flight
// send finishes against the old collector, and the stale connection is
// dropped before the next send dials the new address. A retarget disarms
// the backoff timer — the new collector deserves an immediate attempt —
// and the sealed-batch retry machinery carries unacknowledged batches
// over unchanged, so the survivor's dedup marks see the same sequence
// numbers a retry to the old collector would have carried.
func (u *Uploader) Retarget(addr string) bool {
	u.mu.Lock()
	if addr == "" || addr == u.addr {
		u.mu.Unlock()
		return false
	}
	u.addr = addr
	u.retargeted = true
	u.consecFails = 0
	u.nextAttempt = time.Time{}
	u.reroutes++
	u.mu.Unlock()
	mUpReroutes.Inc()
	return true
}

// SetRouter installs (or, with nil, removes) a router consulted before
// every send; when it names a different collector than the current
// target, the uploader retargets automatically.
func (u *Uploader) SetRouter(r TargetRouter) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.router = r
}

// Reroutes returns how many times the uploader switched collectors.
func (u *Uploader) Reroutes() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.reroutes
}

// maybeRetarget re-resolves the device's owner through the router, if
// any, and reports whether the target changed.
func (u *Uploader) maybeRetarget() bool {
	u.mu.Lock()
	r := u.router
	dev := u.deviceID
	u.mu.Unlock()
	if r == nil {
		return false
	}
	return u.Retarget(r.Target(dev))
}

// SetBackoff configures the exponential backoff armed by failed flushes:
// base doubles per consecutive failure up to max, and jitter (may be nil
// for full, deterministic delays) spreads retries so a fleet recovering
// from a collector outage does not reconnect in lockstep. Split the
// jitter source off the device's RNG stream to keep runs reproducible.
func (u *Uploader) SetBackoff(base, max time.Duration, jitter *rng.Source) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.backoffBase, u.backoffMax, u.jitter = base, max, jitter
}

// SetChaos installs a transport fault injector consulted once per batch
// send attempt. Pass nil to disable.
func (u *Uploader) SetChaos(c UploadChaos) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.chaos = c
}

// Record buffers an event for upload: it encodes the event into the
// pending frame. It sends nothing; Flush does.
func (u *Uploader) Record(e failure.Event) {
	u.mu.Lock()
	if u.pending == nil {
		u.pending = v3EncPool.Get().(*v3Enc)
		u.pending.reset(u.deviceID)
	}
	u.pending.appendEvent(&e)
	u.mu.Unlock()
}

// sealLocked seals the pending batch into a frame carrying the next
// sequence number, appends it to the sealed backlog, and empties the
// batch for Record to go on building. The seq is assigned exactly once
// and the frame is not written again until its ack, so retries re-send
// the identical bytes and the collector can dedup them. The frame goes
// into the buffer of the last acked frame when flush parked one, so a
// steady-state seal allocates nothing. A batch too large for the wire
// stays pending, and the error says so.
func (u *Uploader) sealLocked() error {
	p := u.pending
	if p == nil || p.n == 0 {
		return nil
	}
	frame, err := p.seal(p.frame[:0], u.deviceID, u.nextSeq+1)
	if err != nil {
		return err
	}
	u.nextSeq++
	p.frame = nil
	u.sealed = append(u.sealed, sealedFrame{seq: u.nextSeq, events: p.n, frame: frame})
	p.reset(u.deviceID)
	return nil
}

// popSealedLocked removes the oldest sealed frame in place: the rest move
// down one slot and the vacated last slot is cleared. So the backing array
// pins no acked frame, and the next seal appends into it instead of
// growing a new one.
func (u *Uploader) popSealedLocked() {
	n := copy(u.sealed, u.sealed[1:])
	u.sealed[n] = sealedFrame{}
	u.sealed = u.sealed[:n]
}

// Pending returns the number of buffered events not yet acknowledged by
// the collector: the pending buffer and sealed batches. Only tests read
// it, to observe the uploader.
func (u *Uploader) Pending() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := u.pendingLocked()
	for _, f := range u.sealed {
		n += f.events
	}
	return n
}

// pendingLocked returns how many events the pending batch holds.
func (u *Uploader) pendingLocked() int {
	if u.pending == nil {
		return 0
	}
	return u.pending.n
}

// SentBytes returns total wire bytes uploaded (network budget accounting).
func (u *Uploader) SentBytes() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.sentBytes
}

// FlushRetries returns how many Flush attempts failed on the network
// (events stayed buffered and were retried later).
func (u *Uploader) FlushRetries() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.retries
}

// LastErr returns the most recent flush failure, or nil after a
// successful send. Only tests read it, to observe the uploader.
func (u *Uploader) LastErr() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.lastErr
}

// ConsecutiveFailures returns how many flush attempts have failed since
// the last acknowledged batch. Only tests read it, to observe the
// uploader.
func (u *Uploader) ConsecutiveFailures() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.consecFails
}

// RetryDelay returns how long the backoff timer has left, or 0 when the
// next attempt may go immediately.
func (u *Uploader) RetryDelay() time.Duration {
	u.mu.Lock()
	defer u.mu.Unlock()
	if d := time.Until(u.nextAttempt); d > 0 {
		return d
	}
	return 0
}

// SetWiFi updates connectivity; gaining WiFi flushes the buffer.
func (u *Uploader) SetWiFi(on bool) {
	u.mu.Lock()
	u.wifi = on
	n := u.pendingLocked() + len(u.sealed)
	u.mu.Unlock()
	if on && n > 0 {
		u.Flush()
	}
}

// Close releases the persistent connection and puts an empty pending
// batch, with the frame buffer it parks, back in the pool. Buffered
// events are not flushed; call Flush first if they should survive.
func (u *Uploader) Close() error {
	u.sendMu.Lock()
	defer u.sendMu.Unlock()
	u.dropConn()
	u.mu.Lock()
	if p := u.pending; p != nil && p.n == 0 {
		u.pending = nil
		putEnc(p)
	}
	u.mu.Unlock()
	return nil
}

// Flush uploads all buffered events if WiFi is available, oldest first:
// the sealed batches, then the current pending buffer (sealed on entry).
// It stops at the first failure, leaving everything unacknowledged
// buffered for the next attempt.
func (u *Uploader) Flush() error {
	u.sendMu.Lock()
	defer u.sendMu.Unlock()
	u.mu.Lock()
	if !u.wifi {
		u.mu.Unlock()
		return ErrNoWiFi
	}
	if err := u.sealLocked(); err != nil {
		u.mu.Unlock()
		err = fmt.Errorf("trace: upload: %w", err)
		u.noteFailure(err)
		return err
	}
	hasWork := len(u.sealed) > 0
	u.mu.Unlock()
	if !hasWork {
		return nil
	}

	start := time.Now()
	sentBatches := 0
	// send consults the router first, then delivers; a redirect nack from
	// a collector that lost ownership of this device mid-flight earns one
	// immediate retry at the freshly resolved owner before the failure
	// arms backoff.
	send := func(seq uint64, frame []byte) error {
		u.maybeRetarget()
		err := u.sendOne(seq, frame)
		if err != nil && errors.Is(err, ErrWrongCollector) && u.maybeRetarget() {
			err = u.sendOne(seq, frame)
		}
		return err
	}
	for {
		u.mu.Lock()
		if len(u.sealed) == 0 {
			u.mu.Unlock()
			break
		}
		f := u.sealed[0]
		u.mu.Unlock()
		if err := send(f.seq, f.frame); err != nil {
			u.noteFailure(err)
			return err
		}
		u.mu.Lock()
		// Only a flush, under sendMu, pops a sealed frame, so f is still
		// the head. Popped, nothing else holds the acked frame: its buffer
		// is parked for the next seal when the pending batch has none.
		// f.frame is not read again once u.mu is released.
		u.popSealedLocked()
		if p := u.pending; p != nil && p.frame == nil {
			p.frame = f.frame[:0]
		}
		u.mu.Unlock()
		u.noteSuccess(len(f.frame), f.events)
		sentBatches++
	}
	if sentBatches > 0 {
		mUploadSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// sendOne writes one sealed frame, carrying seq, over the persistent
// connection (dialing if needed) and waits for its reply. It encodes
// nothing: a retry writes the bytes the first attempt wrote. Any failure
// closes the connection so the next attempt starts from a clean dial.
func (u *Uploader) sendOne(seq uint64, frame []byte) error {
	u.mu.Lock()
	chaos := u.chaos
	dev := u.deviceID
	addr := u.addr
	stale := u.retargeted
	u.retargeted = false
	u.mu.Unlock()
	fault := FaultNone
	if chaos != nil {
		fault = chaos.UploadFault(dev, seq)
	}
	acked := false
	if chaos != nil {
		defer func() { chaos.UploadOutcome(dev, acked) }()
	}
	if fault == FaultDial {
		u.dropConn()
		return fmt.Errorf("trace: dial collector: %w", errInjectedOutage)
	}
	if stale {
		// Retarget changed the address since this connection was dialed;
		// finish the switch here, where sendMu is held.
		u.dropConn()
	}
	if u.conn == nil {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return fmt.Errorf("trace: dial collector: %w", err)
		}
		u.conn = conn
		u.rd = bufio.NewReader(conn)
	}
	u.conn.SetDeadline(time.Now().Add(30 * time.Second))
	if fault == FaultSlow {
		time.Sleep(chaosSlowDelay)
	}
	if fault == FaultTruncate {
		u.conn.Write(frame[:len(frame)/2])
		u.dropConn()
		return fmt.Errorf("trace: upload: %w", errInjectedTruncate)
	}
	if _, err := u.conn.Write(frame); err != nil {
		u.dropConn()
		return fmt.Errorf("trace: upload: %w", err)
	}
	if fault == FaultAckLoss {
		// The batch is fully written; sever the connection before reading
		// the reply. Whether the collector stored it is deliberately
		// unknown — the retry plus collector dedup must make it exactly
		// once either way.
		u.dropConn()
		return fmt.Errorf("%w (injected)", ErrAckLost)
	}
	kind, got, retryAfter, err := readReply(u.rd, &u.reply)
	if err != nil {
		u.dropConn()
		return fmt.Errorf("%w: %v", ErrAckLost, err)
	}
	if kind == batchWrongCollector {
		// Redirect nack: the collector decoded the batch but does not own
		// this device under its ring view, and stored nothing. It closes
		// its side after replying; drop ours and let the caller re-resolve
		// the owner.
		u.dropConn()
		return fmt.Errorf("%w (addr %s, seq %d)", ErrWrongCollector, addr, got)
	}
	if kind == batchNack {
		// The collector shed us; it closes its side after the nack, so
		// drop ours too and honor the suggested backoff.
		u.dropConn()
		return &NackError{RetryAfter: retryAfter}
	}
	if got != seq {
		u.dropConn()
		return fmt.Errorf("%w: acked seq %d, sent %d", ErrBadAck, got, seq)
	}
	acked = true
	return nil
}

// dropConn closes the persistent connection; the next send re-dials.
// Caller must hold sendMu.
func (u *Uploader) dropConn() {
	if u.conn != nil {
		u.conn.Close()
		u.conn = nil
		u.rd = nil
	}
}

// noteSuccess accounts one acknowledged batch and disarms the backoff.
func (u *Uploader) noteSuccess(wire, events int) {
	mUpBatches.Inc()
	mUpEvents.Add(int64(events))
	mUpBytes.Add(int64(wire))
	u.mu.Lock()
	u.sentBytes += int64(wire)
	u.uploads++
	u.consecFails = 0
	u.lastErr = nil
	u.nextAttempt = time.Time{}
	u.mu.Unlock()
}

// noteFailure accounts a failed flush and arms the backoff timer: base
// doubled per consecutive failure, capped, jittered into [d/2, d) when a
// jitter source is configured, with a nack's retry-after as a floor.
func (u *Uploader) noteFailure(err error) {
	mUpRetries.Inc()
	u.mu.Lock()
	u.retries++
	u.consecFails++
	u.lastErr = err
	base, max := u.backoffBase, u.backoffMax
	if base <= 0 {
		base = defaultBackoffBase
	}
	if max <= 0 {
		max = defaultBackoffMax
	}
	d := base
	for i := 1; i < u.consecFails && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if u.jitter != nil {
		d = d/2 + time.Duration(u.jitter.Float64()*float64(d/2))
	}
	var nack *NackError
	if errors.As(err, &nack) && nack.RetryAfter > d {
		d = nack.RetryAfter
	}
	u.nextAttempt = time.Now().Add(d)
	u.mu.Unlock()
	mUpBackoffTotal.Inc()
	mUpBackoffSeconds.Observe(d.Seconds())
}
