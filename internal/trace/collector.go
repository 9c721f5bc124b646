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
	// it. The hook runs on the serve goroutine with the dedup gate held: it
	// must not block (hand off to a queue and return).
	OnAdmit func(events []failure.Event)
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
// The dedup gate is one mutex, held from the mark check to the mark
// update (see admit): connections read and decode their frames in
// parallel and admit one at a time, as the store's single append lock
// makes them anyway. The gate does no per-event work, and OnAdmit sees
// exactly the admitted multiset (I5), in the order the store holds it.
type Collector struct {
	ln  net.Listener
	ds  *Dataset
	opt CollectorOptions

	// mu guards connection lifecycle only; admit state is under gate.
	mu         sync.Mutex
	conns      map[net.Conn]struct{}
	shed       map[net.Conn]struct{} // over-cap conns in their shed handshake
	nacks      int64
	redirects  int64
	closed     bool
	draining   bool
	drainUntil time.Time
	drainDone  chan struct{} // non-nil once Drain starts; closed when it finishes

	// gate is the dedup gate: it guards the per-device marks and the
	// admit counters, and admit holds it across the durable append.
	gate      sync.Mutex
	lastSeq   map[uint64]uint64 // per-device acked (durable) high-water mark
	batches   int
	rxBytes   int64
	dedupHits int64

	wg sync.WaitGroup
}

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
		ln:      ln,
		ds:      ds,
		opt:     opt,
		conns:   make(map[net.Conn]struct{}),
		shed:    make(map[net.Conn]struct{}),
		lastSeq: make(map[uint64]uint64),
	}
	// Seed the dedup gate from the store's replayed high-water marks: a
	// batch acked before the previous process died dedups here instead of
	// being double-stored.
	if opt.Store != nil {
		c.lastSeq = opt.Store.Marks()
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the collector's listen address.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

// Stats returns the number of batches stored and the wire bytes of every
// frame that reached the dedup gate, duplicates included.
func (c *Collector) Stats() (batches int, rxBytes int64) {
	c.gate.Lock()
	defer c.gate.Unlock()
	return c.batches, c.rxBytes
}

// DedupHits returns how many re-sent batches were acknowledged without
// being re-appended.
func (c *Collector) DedupHits() int64 {
	c.gate.Lock()
	defer c.gate.Unlock()
	return c.dedupHits
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
// of being double-stored — the takeover half of invariant I7. No frame of
// this collector's own store shows an inherited mark, so with a store
// attached the marks are checkpointed there first: they outlive this
// process, and reach the next heir if it fails in turn. A seed that
// cannot be persisted is not applied.
func (c *Collector) SeedMarks(marks map[uint64]uint64) (int, error) {
	c.gate.Lock()
	defer c.gate.Unlock()
	if c.opt.Store != nil {
		if err := c.opt.Store.seedMarks(marks); err != nil {
			return 0, err
		}
	}
	seeded := 0
	for dev, seq := range marks {
		if seq > c.lastSeq[dev] {
			c.lastSeq[dev] = seq
			seeded++
		}
	}
	mColTakeover.Add(int64(seeded))
	return seeded, nil
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
		if err := c.admit(b, raw); err != nil {
			// The batch is not stored: drop the connection without acking
			// and let the device's retry re-deliver it.
			mColDropped.Inc()
			return
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

// persistHook, when non-nil, observes each fresh batch immediately
// before its durable append, with the gate held — a test seam for holding
// an append in flight while a duplicate delivery arrives on another
// connection.
var persistHook func(*Batch)

// admit is the dedup gate: unless the device's high-water mark shows b is
// already stored, it appends raw — the validated frame b was decoded from,
// as received — to the store and publishes b's events, and it returns nil
// once the batch may be acked. The gate is held from the mark check to the
// mark update, so a duplicate arriving while the original is still being
// persisted waits here and is acked as a duplicate once, and only if, the
// original is durable; the mark never advances before the append has
// landed, so an ack can never precede durability. An error means b is not
// stored: the mark stays put and the retry is admitted as fresh. Without
// a store the in-memory dataset is the only copy.
func (c *Collector) admit(b *Batch, raw []byte) error {
	c.gate.Lock()
	defer c.gate.Unlock()
	c.rxBytes += int64(len(raw))
	if b.Seq <= c.lastSeq[b.DeviceID] {
		c.dedupHits++
		mColDedupHits.Inc()
		return nil
	}
	if h := persistHook; h != nil {
		h(b)
	}
	if st := c.opt.Store; st != nil {
		if err := st.appendFrame(raw, b.DeviceID, b.Seq, len(b.Events)); err != nil {
			return err
		}
	}
	// Publish the decoded slice itself, under the gate: the dataset's
	// segments are the admitted frames in store order.
	c.ds.Publish(b.Events)
	mColBatches.Inc()
	mColEvents.Add(int64(len(b.Events)))
	mDatasetEvents.Set(float64(c.ds.Len()))
	if c.opt.OnAdmit != nil {
		c.opt.OnAdmit(b.Events)
	}
	c.lastSeq[b.DeviceID] = b.Seq
	c.batches++
	return nil
}
