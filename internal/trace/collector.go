package trace

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/failure"
)

// CollectorOptions tunes the backend's robustness envelope. The zero
// value selects production-ish defaults; tests shrink them to provoke
// shedding and drain paths quickly.
type CollectorOptions struct {
	// MaxConns caps concurrently served connections. A connection
	// arriving past the cap is shed: once its first frame byte arrives the
	// collector replies with a nack carrying RetryAfter and closes — so
	// overload never grows the serve-goroutine count unboundedly.
	// <= 0 uses 256.
	MaxConns int
	// ReadTimeout is the per-read idle deadline on a served connection.
	// A device that goes silent mid-connection (suspended phone, dead
	// radio) releases its server resources after this long instead of
	// parking a goroutine forever. <= 0 uses 2 minutes.
	ReadTimeout time.Duration
	// RetryAfter is the backoff floor suggested in shed nacks.
	// <= 0 uses 500ms.
	RetryAfter time.Duration
	// OnAdmit, when set, observes every batch that passes the dedup gate,
	// immediately after its events are published to the dataset. It sees
	// exactly the admitted multiset — duplicate deliveries never reach it —
	// so a streaming consumer stays equal to the stored dataset. The slice
	// is the one the dataset now holds: shared and read-only, for the hook
	// and for whatever it hands the slice to, for as long as either keeps
	// it. The hook runs on the serve goroutine: it must not block (hand off
	// to a queue and return).
	OnAdmit func(events []failure.Event)
	// AdmitShards is the number of independent admit shards. Dedup marks
	// and batch/byte accounting are partitioned by DeviceID across shards,
	// so concurrent connections admit without contending on one mutex.
	// <= 0 uses 16 (matching DefaultShards).
	AdmitShards int
	// Store, when set, makes admitted batches crash-durable: every fresh
	// batch is appended to the segment store before its ack is written,
	// and the store's replayed high-water marks seed the dedup gate at
	// construction — a collector rebooted from disk re-acks retried
	// batches instead of double-storing them. A store append failure
	// drops the connection unacked, so the device's retry re-delivers.
	Store *SegStore
	// Owns, when set, restricts this collector to the devices a routing
	// ring assigns it. A decoded batch whose device it does not own is
	// refused before the dedup gate and before any store append with a
	// wrong-collector redirect nack (the client re-resolves the owner and
	// retries there). The check is consulted per batch, so ring changes
	// take effect on in-flight connections at the next frame boundary. It
	// must be safe for concurrent use.
	Owns func(device uint64) bool
}

func (o CollectorOptions) withDefaults() CollectorOptions {
	if o.MaxConns <= 0 {
		o.MaxConns = 256
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 2 * time.Minute
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 500 * time.Millisecond
	}
	if o.AdmitShards <= 0 {
		o.AdmitShards = DefaultShards
	}
	return o
}

// Collector is the backend TCP server that receives uploaded batches.
//
// Each frame is handled once per step: read into the connection's buffer,
// decoded and validated, checked for ownership, passed through the dedup
// gate, appended to the store as the bytes that were received, published
// to the dataset as the slice that was decoded, shown to OnAdmit, acked.
// Decoded events are immutable from then on — the dataset, the OnAdmit
// consumer and any reader of either share them.
//
// Ingestion is at-least-once and duplicate-free: batches carry
// (DeviceID, Seq) and the collector remembers, per device, the highest
// acknowledged sequence number. A batch re-sent after a lost ack is
// acknowledged again without re-appending, so retries never skew the
// dataset (see the wire-protocol comment in wire.go). With a SegStore
// attached the marks survive the process: acks are written only after
// the batch is durably appended, and a rebooted collector replays the
// store to restore both the dataset and the dedup marks.
//
// The admit path is sharded by DeviceID: dedup marks and accounting live
// in opt.AdmitShards independent shards, and the dataset publish is pinned
// to the batch's DeviceID shard, so concurrent connections admit in
// parallel. The gate does no per-event work. A device always lands on the
// same shard, which preserves the per-device dedup ordering — and
// therefore the admitted-multiset contract OnAdmit consumers rely on (I5).
type Collector struct {
	ln  net.Listener
	ds  *Dataset
	opt CollectorOptions

	// mu guards connection lifecycle only; admit-path state is sharded.
	mu         sync.Mutex
	conns      map[net.Conn]struct{}
	shed       map[net.Conn]struct{} // over-cap conns in their shed handshake
	nacks      int64
	redirects  int64
	closed     bool
	draining   bool
	drainUntil time.Time
	drainDone  chan struct{} // non-nil once Drain starts; closed when it finishes

	shards []collectorShard
	wg     sync.WaitGroup
}

// collectorShard is one DeviceID-partition of the admit path. Each shard
// has its own mutex, so the only cross-connection contention is between
// devices that hash to the same shard.
type collectorShard struct {
	mu        sync.Mutex
	lastSeq   map[uint64]uint64         // per-device acked (durable) high-water mark
	pending   map[uint64]*pendingAppend // per-device in-flight durable append
	batches   int
	rxBytes   int64
	dedupHits int64
	_         [32]byte // pad to keep hot shard state off shared cache lines
}

// pendingAppend tracks one in-flight durable append. The high-water mark
// only advances once the append has landed (ack ⇒ durable), so a
// duplicate arriving while the original is still being persisted can
// neither be re-appended (the pending entry gates it) nor be acked early
// (the duplicate's connection parks on done and inherits the outcome).
type pendingAppend struct {
	seq  uint64
	done chan struct{}
	err  error
}

// admitDecision is the outcome of the dedup gate for one batch.
type admitDecision int

const (
	// admitFresh: first sight of this batch — persist, append, then ack.
	admitFresh admitDecision = iota
	// admitDup: a duplicate of a durably stored batch — ack immediately.
	admitDup
	// admitWait: a duplicate of a batch whose durable append is still in
	// flight on another connection — wait for its outcome before acking.
	admitWait
)

// NewCollector starts a collector on addr (e.g. "127.0.0.1:0") feeding ds
// with default options.
func NewCollector(addr string, ds *Dataset) (*Collector, error) {
	return NewCollectorWith(addr, ds, CollectorOptions{})
}

// NewCollectorWith starts a collector with explicit options.
func NewCollectorWith(addr string, ds *Dataset, opt CollectorOptions) (*Collector, error) {
	if ds == nil {
		return nil, errors.New("trace: nil dataset")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	c := &Collector{
		ln:     ln,
		ds:     ds,
		opt:    opt,
		conns:  make(map[net.Conn]struct{}),
		shed:   make(map[net.Conn]struct{}),
		shards: make([]collectorShard, opt.AdmitShards),
	}
	for i := range c.shards {
		c.shards[i].lastSeq = make(map[uint64]uint64)
		c.shards[i].pending = make(map[uint64]*pendingAppend)
	}
	// Seed the dedup gate from the store's replayed high-water marks: a
	// batch acked before the previous process died dedups here instead of
	// being double-stored.
	if opt.Store != nil {
		for dev, seq := range opt.Store.Marks() {
			c.shardFor(dev).lastSeq[dev] = seq
		}
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// shardFor returns the admit shard owning device. All of a device's
// batches — and therefore all of its sequence numbers — route to the
// same shard, so per-device dedup needs no cross-shard coordination.
func (c *Collector) shardFor(device uint64) *collectorShard {
	return &c.shards[device%uint64(len(c.shards))]
}

// Addr returns the collector's listen address.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

// Stats returns the number of batches and wire bytes received, summed
// across admit shards.
func (c *Collector) Stats() (batches int, rxBytes int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		batches += sh.batches
		rxBytes += sh.rxBytes
		sh.mu.Unlock()
	}
	return batches, rxBytes
}

// DedupHits returns how many re-sent batches were acknowledged without
// being re-appended.
func (c *Collector) DedupHits() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.dedupHits
		sh.mu.Unlock()
	}
	return n
}

// Nacks returns how many connections were shed over the connection cap.
func (c *Collector) Nacks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nacks
}

// Redirects returns how many batches were refused with a wrong-collector
// redirect because opt.Owns disclaimed their device.
func (c *Collector) Redirects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.redirects
}

// SeedMarks raises the per-device acked high-water marks to at least the
// given sequence numbers and returns how many devices had a mark newly
// set or raised. A survivor taking over a dead collector's devices seeds
// the marks replayed from the dead store here *before* the ring exposes
// the reroute, so a device retrying a batch the dead collector had
// durably stored (ack lost in the crash) dedups on the survivor instead
// of being double-stored — the takeover half of invariant I7.
func (c *Collector) SeedMarks(marks map[uint64]uint64) int {
	seeded := 0
	for dev, seq := range marks {
		sh := c.shardFor(dev)
		sh.mu.Lock()
		if seq > sh.lastSeq[dev] {
			sh.lastSeq[dev] = seq
			seeded++
		}
		sh.mu.Unlock()
	}
	if seeded > 0 {
		mColTakeover.Add(int64(seeded))
	}
	return seeded
}

// Close stops the collector and waits for in-flight connections. Open
// connections are force-closed: a serve goroutine parked in a read on
// an idle client would otherwise keep Close waiting forever. Use Drain
// for the graceful variant that acks in-flight batches first. A Close
// that arrives while a Drain is in progress waits for the drain instead
// of force-closing: cutting connections mid-ack during Drain's wg.Wait
// window would silently void the drain guarantee.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	if c.draining {
		done := c.drainDone
		c.mu.Unlock()
		<-done
		return nil
	}
	c.closed = true
	open := c.openConnsLocked()
	c.mu.Unlock()
	err := c.ln.Close()
	for _, conn := range open {
		conn.Close()
	}
	c.wg.Wait()
	return err
}

// openConnsLocked snapshots every live connection — served and shed —
// for a force-close pass. Caller holds c.mu.
func (c *Collector) openConnsLocked() []net.Conn {
	open := make([]net.Conn, 0, len(c.conns)+len(c.shed))
	for conn := range c.conns {
		open = append(open, conn)
	}
	for conn := range c.shed {
		open = append(open, conn)
	}
	return open
}

// Drain shuts the collector down gracefully: the listener closes so no
// new connection is admitted, and every open connection gets up to grace
// to finish (and be acked for) the batch it is currently sending before
// its serve loop exits at the next frame boundary. Only after all serve
// goroutines return does Drain come back — so every acknowledged batch is
// in the dataset, and nothing acked was cut off mid-store. A concurrent
// Drain or Close waits for the first Drain to finish.
func (c *Collector) Drain(grace time.Duration) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	if c.draining {
		done := c.drainDone
		c.mu.Unlock()
		<-done
		return nil
	}
	c.draining = true
	c.drainUntil = time.Now().Add(grace)
	done := make(chan struct{})
	c.drainDone = done
	// Re-arm deadlines on connections already parked in a read, so idle
	// ones wake at the drain deadline instead of their idle timeout. This
	// happens under c.mu — the same mutex armDeadline holds across its
	// decision and its arming — so a serve goroutine that read
	// draining=false can no longer overwrite the drain deadline with the
	// full idle timeout afterwards.
	for conn := range c.conns {
		conn.SetReadDeadline(c.drainUntil)
	}
	// Shed connections carry nothing admitted; close them now so the
	// drain never waits out a shed handshake deadline.
	for conn := range c.shed {
		conn.Close()
	}
	c.mu.Unlock()
	err := c.ln.Close()
	c.wg.Wait()
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	close(done)
	return err
}

// Kill force-closes the listener and every connection immediately — no
// grace, no acks, nothing flushed — approximating SIGKILL for the
// crash/restart harness. It waits for the serve goroutines only so the
// caller can safely reopen the store directory in-process; a batch
// mid-admit at the kill either completed its durable append (its retry
// will be deduped after replay) or did not (its retry will be stored) —
// exactly the two outcomes a real SIGKILL leaves on disk. Pair with
// SegStore.Kill to also fail in-flight appends.
func (c *Collector) Kill() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	open := c.openConnsLocked()
	c.mu.Unlock()
	c.ln.Close()
	for _, conn := range open {
		conn.Close()
	}
	c.wg.Wait()
}

// admitConn registers a new connection, enforcing the connection cap.
// Over the cap the connection is handed to a shed goroutine and refused.
// It reports whether the caller should serve the connection.
func (c *Collector) admitConn(conn net.Conn) bool {
	c.mu.Lock()
	if c.closed || c.draining {
		c.mu.Unlock()
		conn.Close()
		return false
	}
	if len(c.conns) >= c.opt.MaxConns {
		c.nacks++
		retry := c.opt.RetryAfter
		c.shed[conn] = struct{}{}
		c.wg.Add(1)
		c.mu.Unlock()
		mColNacks.Inc()
		go c.shedConn(conn, retry)
		return false
	}
	c.conns[conn] = struct{}{}
	mColOpenConns.Set(float64(len(c.conns)))
	c.mu.Unlock()
	return true
}

// shedConn sheds one over-cap connection. It reads the client's opening
// frame byte: 0xA3 is an upload and gets the retry-after nack; anything
// else is not a client that could parse one and is closed with no reply,
// as is a client that sends nothing within the handshake deadline.
func (c *Collector) shedConn(conn net.Conn, retry time.Duration) {
	defer c.wg.Done()
	defer conn.Close()
	defer func() {
		c.mu.Lock()
		delete(c.shed, conn)
		c.mu.Unlock()
	}()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var first [1]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		return
	}
	if first[0] == versionV3 {
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		writeReply(conn, batchNack, 0, retry)
	}
}

func (c *Collector) untrack(conn net.Conn) {
	c.mu.Lock()
	delete(c.conns, conn)
	mColOpenConns.Set(float64(len(c.conns)))
	c.mu.Unlock()
}

func (c *Collector) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !c.admitConn(conn) {
			continue
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer conn.Close()
			defer c.untrack(conn)
			c.serve(conn)
		}()
	}
}

// armDeadlineHook, when non-nil, runs between armDeadline's drain-state
// decision and its SetReadDeadline call — the seam of the historical
// overwrite race, kept as a test hook so the regression test can force
// the exact interleaving that used to lose the drain deadline.
var armDeadlineHook func()

// armDeadline sets the next read deadline: the idle timeout in steady
// state, the drain deadline once Drain has been called. Decision and
// arming both happen under c.mu — the mutex Drain holds while re-arming
// open connections — so a goroutine that decided "not draining", lost
// the CPU, and then armed the full idle timeout over Drain's freshly-set
// deadline (leaving wg.Wait parked for up to ReadTimeout past the grace)
// can no longer interleave.
func (c *Collector) armDeadline(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	draining, until := c.draining, c.drainUntil
	if h := armDeadlineHook; h != nil {
		h()
	}
	if draining {
		conn.SetReadDeadline(until)
		return
	}
	conn.SetReadDeadline(time.Now().Add(c.opt.ReadTimeout))
}

// connFrameKeep is the largest frame buffer a connection keeps between
// frames; a rare larger frame gets a buffer of its own, so an idle
// connection never pins more than this.
const connFrameKeep = 1 << 20

func (c *Collector) serve(conn net.Conn) {
	br := bufio.NewReader(conn)
	var buf []byte // this connection's frame buffer, reused frame to frame
	for {
		c.armDeadline(conn)
		if _, err := br.Peek(1); err != nil {
			// Clean EOF, idle timeout, or drain deadline at a frame
			// boundary: nothing in flight, nothing lost. Anything else
			// (e.g. a force-close with unread bytes) counts as a drop.
			var ne net.Error
			if err != io.EOF && !(errors.As(err, &ne) && ne.Timeout()) {
				mColDropped.Inc()
			}
			return
		}
		b, raw, err := ReadFrameRaw(br, buf)
		if err != nil || b.Seq == 0 {
			// Malformed or truncated stream, or a batch without the
			// sequence number the dedup gate needs: drop the connection.
			// The batch was never stored, so the device's retry is safe.
			mColDropped.Inc()
			return
		}
		if buf = raw[:0]; cap(buf) > connFrameKeep {
			buf = nil
		}
		if own := c.opt.Owns; own != nil && !own(b.DeviceID) {
			// Not ours under the ring: refuse before the dedup gate and
			// before any store append, then drop the connection — the
			// client must re-resolve the owner, not keep streaming here.
			c.mu.Lock()
			c.redirects++
			c.mu.Unlock()
			writeReply(conn, batchWrongCollector, b.Seq, c.opt.RetryAfter)
			return
		}
		dec, p := c.admit(b, len(raw))
		switch dec {
		case admitWait:
			// Another connection is persisting this very batch. Ack only
			// once that append is durable; if it failed, drop the
			// connection unacked so the device keeps retrying.
			<-p.done
			if p.err != nil {
				return
			}
		case admitFresh:
			perr := c.persist(b, raw)
			if perr == nil {
				// Publish the decoded slice itself, pinned to the batch's
				// DeviceID shard: deterministic placement, and two
				// connections carrying different devices lock different
				// dataset shards.
				c.ds.PublishShard(int(b.DeviceID%uint64(c.ds.NumShards())), b.Events)
				mColBatches.Inc()
				mColEvents.Add(int64(len(b.Events)))
				mDatasetEvents.Set(float64(c.ds.Len()))
				if c.opt.OnAdmit != nil {
					c.opt.OnAdmit(b.Events)
				}
			}
			c.finishAdmit(b, p, perr)
			if perr != nil {
				// The batch is not durable: drop the connection without
				// acking and let the device's retry re-deliver it.
				mColDropped.Inc()
				return
			}
		}
		mColRxBytes.Add(int64(len(raw)))
		// Acknowledge once the batch is durably in the dataset (or known
		// to be a duplicate of one that already is), so the device can
		// trim its buffer knowing nothing was lost in flight.
		if err := writeReply(conn, batchAck, b.Seq, 0); err != nil {
			return
		}
	}
}

// admit runs a received batch through the dedup gate. The per-device
// high-water mark dedups retries of durably stored batches, and a pending
// entry gates retries of batches whose durable append is still in
// flight: the mark itself only advances in finishAdmit, once the append
// has landed, so an ack can never precede durability. Only the batch's
// DeviceID shard is locked.
func (c *Collector) admit(b *Batch, wire int) (admitDecision, *pendingAppend) {
	sh := c.shardFor(b.DeviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.rxBytes += int64(wire)
	if last, ok := sh.lastSeq[b.DeviceID]; ok && b.Seq <= last {
		sh.dedupHits++
		mColDedupHits.Inc()
		return admitDup, nil
	}
	if p := sh.pending[b.DeviceID]; p != nil && b.Seq <= p.seq {
		sh.dedupHits++
		mColDedupHits.Inc()
		return admitWait, p
	}
	p := &pendingAppend{seq: b.Seq, done: make(chan struct{})}
	sh.pending[b.DeviceID] = p
	sh.batches++
	return admitFresh, p
}

// persistHook, when non-nil, observes each fresh batch immediately
// before its durable append — a test seam for holding an append in
// flight while a duplicate delivery arrives on another connection.
var persistHook func(*Batch)

// persist makes b durable before it is acknowledged by appending raw, the
// validated frame b was decoded from, to the store as received. Without a
// store this is a no-op: the in-memory dataset is then the only copy.
func (c *Collector) persist(b *Batch, raw []byte) error {
	if h := persistHook; h != nil {
		h(b)
	}
	if c.opt.Store == nil {
		return nil
	}
	return c.opt.Store.appendFrame(raw, b.DeviceID, b.Seq, len(b.Events))
}

// finishAdmit publishes the outcome of a fresh batch's durable append:
// on success the device's high-water mark advances (later duplicates ack
// immediately), on failure it stays put so the retry is admitted as
// fresh. Either way, connections parked on the pending entry are
// released with the outcome.
func (c *Collector) finishAdmit(b *Batch, p *pendingAppend, err error) {
	sh := c.shardFor(b.DeviceID)
	sh.mu.Lock()
	if err == nil && b.Seq > sh.lastSeq[b.DeviceID] {
		sh.lastSeq[b.DeviceID] = b.Seq
	}
	if sh.pending[b.DeviceID] == p {
		delete(sh.pending, b.DeviceID)
	}
	p.err = err
	sh.mu.Unlock()
	close(p.done)
}
