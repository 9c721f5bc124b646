package trace

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
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
// Flush seals it into a frame with a device-local sequence number, and a
// sealed frame is retained as its bytes — in memory, or in the spill WAL
// once the buffer cap forces it to disk — until the collector
// acknowledges that exact sequence number. Every attempt at it, a retry,
// a redirect re-send or a WAL resend, writes those same bytes, so an
// upload only writes and waits. Failed
// flushes arm an exponential-backoff timer with seeded jitter; Record's
// best-effort flushes respect the timer (so a dead collector is not
// hammered once per event), while an explicit Flush always attempts.
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

	// FlushThreshold is how many events accumulate before an on-WiFi
	// Record triggers an upload (default 1: immediate). Batching
	// amortizes the TCP round trip; SetWiFi(true) and Flush always drain
	// everything regardless.
	FlushThreshold int

	// BufferLimit caps the in-memory backlog (pending + sealed events).
	// When a Record pushes past it, the backlog moves to the spill WAL if
	// EnableSpill configured one, otherwise the oldest events are dropped
	// (accounted in Dropped). 0 means unbounded.
	BufferLimit int

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
	suppressed  int64
	spill       *spillWAL
	spilled     int64
	dropped     int64
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
// and the sealed-batch/WAL retry machinery carries unacknowledged batches
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

// EnableSpill configures an on-disk WAL in dir for overflow past
// BufferLimit. The file is private to this uploader and removed on Close.
func (u *Uploader) EnableSpill(dir string) error {
	w, err := openSpillWAL(filepath.Join(dir, fmt.Sprintf("uploader-%d.wal", u.deviceID)))
	if err != nil {
		return err
	}
	u.mu.Lock()
	old := u.spill
	u.spill = w
	u.mu.Unlock()
	if old != nil {
		old.close()
	}
	return nil
}

// Record buffers an event for upload: it encodes the event into the
// pending frame.
func (u *Uploader) Record(e failure.Event) {
	u.mu.Lock()
	if u.pending == nil {
		u.pending = v3EncPool.Get().(*v3Enc)
		u.pending.reset(u.deviceID)
	}
	u.pending.appendEvent(&e)
	u.enforceLimitLocked()
	threshold := u.FlushThreshold
	if threshold < 1 {
		threshold = 1
	}
	backlog := len(u.sealed) > 0 || (u.spill != nil && u.spill.batchCount() > 0)
	flush := u.wifi && (u.pending.n >= threshold || backlog)
	u.mu.Unlock()
	if flush {
		u.flush(true) // best effort; events stay buffered on failure
	}
}

// enforceLimitLocked applies BufferLimit after an append. With a spill
// WAL the whole in-memory backlog moves to disk oldest-first (sealed
// frames, then the pending batch sealed as one more) so the WAL's
// ascending-seq invariant holds; without one, oldest events are dropped:
// whole sealed frames first, then the oldest of the pending batch.
func (u *Uploader) enforceLimitLocked() {
	limit := u.BufferLimit
	if limit <= 0 {
		return
	}
	total := u.pending.n
	for _, f := range u.sealed {
		total += f.events
	}
	if total <= limit {
		return
	}
	if u.spill != nil && u.sealLocked() == nil {
		for len(u.sealed) > 0 {
			f := u.sealed[0]
			if err := u.spill.append(f.seq, f.events, f.frame); err != nil {
				// Disk trouble: keep the rest in memory and let the
				// drop-oldest path below bound it.
				break
			}
			u.popSealedLocked()
			total -= f.events
			u.spilled += int64(f.events)
			mUpSpilled.Add(int64(f.events))
		}
	}
	for total > limit && len(u.sealed) > 0 {
		n := u.sealed[0].events
		u.popSealedLocked()
		total -= n
		u.dropped += int64(n)
		mUpDropped.Add(int64(n))
	}
	if over := total - limit; over > 0 {
		u.pending.dropOldest(over, u.deviceID)
		u.dropped += int64(over)
		mUpDropped.Add(int64(over))
	}
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
// pins no frame that was acked, spilled or dropped, and the next seal
// appends into it instead of growing a new one.
func (u *Uploader) popSealedLocked() {
	n := copy(u.sealed, u.sealed[1:])
	u.sealed[n] = sealedFrame{}
	u.sealed = u.sealed[:n]
}

// Pending returns the number of buffered events not yet acknowledged by
// the collector: the pending buffer, sealed batches, and the spill WAL.
// Only tests read it, to observe the uploader.
func (u *Uploader) Pending() int {
	u.mu.Lock()
	n := u.pendingLocked()
	for _, f := range u.sealed {
		n += f.events
	}
	spill := u.spill
	u.mu.Unlock()
	if spill != nil {
		n += int(spill.pendingEvents())
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
// successful send. It makes Record's best-effort flush failures
// observable instead of silently swallowed. Only tests read it, to
// observe the uploader.
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

// Spilled returns how many events have moved to the spill WAL. Only
// tests read it, to observe the uploader.
func (u *Uploader) Spilled() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.spilled
}

// Dropped returns how many events were shed oldest-first at the buffer
// cap.
func (u *Uploader) Dropped() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.dropped
}

// Suppressed returns how many best-effort flushes the backoff timer
// skipped. Only tests read it, to observe the uploader.
func (u *Uploader) Suppressed() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.suppressed
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
	if u.spill != nil {
		n += u.spill.batchCount()
	}
	u.mu.Unlock()
	if on && n > 0 {
		u.Flush()
	}
}

// Close releases the persistent connection and the spill WAL, and puts an
// empty pending batch, with the frame buffer it parks, back in the pool.
// Buffered events are not flushed; call Flush first if they should
// survive.
func (u *Uploader) Close() error {
	u.sendMu.Lock()
	defer u.sendMu.Unlock()
	u.dropConn()
	u.mu.Lock()
	spill := u.spill
	u.spill = nil
	if p := u.pending; p != nil && p.n == 0 {
		u.pending = nil
		putEnc(p)
	}
	u.mu.Unlock()
	if spill != nil {
		return spill.close()
	}
	return nil
}

// Flush uploads all buffered events if WiFi is available, oldest first:
// the spill WAL, then sealed batches, then the current pending buffer
// (sealed on entry). It stops at the first failure, leaving everything
// unacknowledged buffered for the next attempt.
func (u *Uploader) Flush() error { return u.flush(false) }

func (u *Uploader) flush(bestEffort bool) error {
	u.sendMu.Lock()
	defer u.sendMu.Unlock()
	u.mu.Lock()
	if !u.wifi {
		u.mu.Unlock()
		return ErrNoWiFi
	}
	if bestEffort && time.Now().Before(u.nextAttempt) {
		u.suppressed++
		u.mu.Unlock()
		mUpBackoffSuppressed.Inc()
		return nil
	}
	if err := u.sealLocked(); err != nil {
		u.mu.Unlock()
		err = fmt.Errorf("trace: upload: %w", err)
		u.noteFailure(err)
		return err
	}
	spill := u.spill
	hasWork := len(u.sealed) > 0 || (spill != nil && spill.batchCount() > 0)
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
		// The WAL holds the oldest sequence numbers, so it drains first;
		// sending a sealed batch while lower seqs sit on disk would make
		// the collector's high-water mark discard them as duplicates.
		if spill != nil {
			seq, events, frame, err := spill.peek()
			if err != nil {
				err = fmt.Errorf("trace: spill WAL read: %w", err)
				u.noteFailure(err)
				return err
			}
			if frame != nil {
				if err := send(seq, frame); err != nil {
					u.noteFailure(err)
					return err
				}
				spill.advance()
				u.noteSuccess(len(frame), events)
				sentBatches++
				continue
			}
		}
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
		// Record's overflow path may have moved the frame to the WAL
		// mid-send; the WAL copy will be re-sent and dedup'd, so only pop
		// it here if it is still the head. Popped, nothing else holds the
		// acked frame: its buffer is parked for the next seal when the
		// pending batch has none. f.frame is not read again once u.mu is
		// released.
		if len(u.sealed) > 0 && u.sealed[0].seq == f.seq {
			u.popSealedLocked()
			if p := u.pending; p != nil && p.frame == nil {
				p.frame = f.frame[:0]
			}
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
