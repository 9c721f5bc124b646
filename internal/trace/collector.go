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
	// it. The hook runs on the serve goroutine with the dedup gate held,
	// before the ack: it must not block (hand off to a queue and return),
	// and should not wake a goroutine per batch either (the streaming
	// engine's applier pauses between drains, so it is woken about once
	// per pause).
	OnAdmit func(events []failure.Event)
	// Store is required: every fresh batch is appended to it before its
	// ack is written, and it owns the per-device marks the dedup gate
	// checks. A store append failure drops the connection unacked, so the
	// device's retry re-delivers.
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
// decoded and validated into the connection's Batch — its events straight
// into the connection's tail of a dataset block — checked for ownership,
// passed through the dedup gate, appended to the store as the bytes that
// were received, published to the dataset as the capped slice of the
// block that was decoded, shown to OnAdmit, acked. Decoded events are
// immutable from then on — the dataset, the OnAdmit consumer and any
// reader of either share them.
//
// A connection reuses its reader, frame buffer, Batch header and reply
// buffer frame to frame, and they are recycled across connections. It
// checks a tail out of the dataset (Dataset.takeTail), decodes each frame
// into it, moves past a frame only once the frame is published, and hands
// the rest back when it closes; a duplicate, a redirect or a malformed
// frame leaves the tail where it was, so nothing unpublished is ever
// visible. A steady-state frame therefore allocates nothing on the way
// in, and a frame larger than the tail gets a slice of its own. Nothing
// may keep the *Batch past the frame it carries (persistHook sees it for
// that frame only); a published slice is never written again.
//
// Ingestion is at-least-once and duplicate-free: batches carry
// (DeviceID, Seq) and the segment store remembers, per device, the
// highest durably stored sequence number. A batch re-sent after a lost
// ack is acknowledged again without re-appending, so retries never skew
// the dataset (see the wire-protocol comment in wire.go). The marks
// survive the process: acks are written only after the batch is durably
// appended, and a rebooted collector replays the store to restore both
// the dataset and the marks.
//
// The dedup gate is one mutex (see admit): connections read and decode
// their frames in parallel and admit one at a time, as the store's single
// append lock makes them anyway. The gate does no per-event work, and
// OnAdmit sees exactly the admitted multiset (I5), in the order the store
// holds it.
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

	// gate is the dedup gate: it guards the admit counters and orders
	// store append → dataset publish → OnAdmit across connections.
	gate      sync.Mutex
	batches   int
	rxBytes   int64
	dedupHits int64

	wg sync.WaitGroup
}

// NewCollectorWith starts a collector on addr (e.g. "127.0.0.1:0")
// feeding ds and storing into opt.Store, which is required; the other
// zero options are the defaults.
func NewCollectorWith(addr string, ds *Dataset, opt CollectorOptions) (*Collector, error) {
	if ds == nil {
		return nil, errors.New("trace: nil dataset")
	}
	if opt.Store == nil {
		return nil, errors.New("trace: a collector needs a segment store")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	c := &Collector{
		ln:    ln,
		ds:    ds,
		opt:   opt,
		conns: make(map[net.Conn]struct{}),
		shed:  make(map[net.Conn]struct{}),
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
// frame byte: 0xA6, the v3 tag, is an upload and gets the retry-after
// nack; anything else — an older build's 0xA3 to 0xA5 included, whose
// frames no collector accepts — is closed with no reply, as is a client
// that sends nothing within the handshake deadline.
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
		writeReply(conn, new(replyBuf), batchNack, 0, retry)
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
// connection, or a recycled connState, never pins more than this.
const connFrameKeep = 1 << 20

// connState is a served connection's read state: its reader, its frame
// buffer, its decoded header and its reply buffer. It is reused frame to
// frame, and recycled across connections through connStates.
type connState struct {
	br    *bufio.Reader
	buf   []byte
	b     Batch
	reply replyBuf
}

var connStates = sync.Pool{New: func() any { return &connState{br: bufio.NewReader(nil)} }}

// release drops the state's hold on its connection and on any events, and
// recycles it.
func (st *connState) release() {
	st.br.Reset(nil)
	st.b = Batch{}
	if cap(st.buf) > connFrameKeep {
		st.buf = nil
	}
	connStates.Put(st)
}

func (c *Collector) serve(conn net.Conn) {
	st := connStates.Get().(*connState)
	defer st.release()
	st.br.Reset(conn)
	br, b, reply := st.br, &st.b, &st.reply
	// tail is this connection's room in a dataset block: frames decode
	// there and each admitted one is published as the next capped prefix.
	// It is handed back on close. want is the room the next frame is
	// expected to need, the size of the last one.
	var tail []failure.Event
	defer func() { c.ds.giveTail(tail) }()
	want := 1
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
		if cap(tail) < want {
			c.ds.giveTail(tail)
			tail = c.ds.takeTail(want)
		}
		b.Events = tail
		raw, err := ReadFrameRaw(br, st.buf, b)
		if err != nil || b.Seq == 0 {
			// Malformed or truncated stream, or a batch without the
			// sequence number the dedup gate needs: drop the connection.
			// The batch was never stored, so the device's retry is safe.
			mColDropped.Inc()
			return
		}
		if st.buf = raw[:0]; cap(st.buf) > connFrameKeep {
			st.buf = nil
		}
		// A frame that fit the tail was decoded into it; a larger one got
		// a slice of its own, and one that fits a block asks for a tail
		// with room for it next time.
		n := len(b.Events)
		inTail := n <= cap(tail)
		b.Events = b.Events[:n:n]
		if n > 0 && n <= blockEvents {
			want = n
		}
		if own := c.opt.Owns; own != nil && !own(b.DeviceID) {
			// Not ours under the ring: refuse before the dedup gate and
			// before any store append, then drop the connection — the
			// client must re-resolve the owner, not keep streaming here.
			c.mu.Lock()
			c.redirects++
			c.mu.Unlock()
			writeReply(conn, reply, batchWrongCollector, b.Seq, c.opt.RetryAfter)
			return
		}
		published, err := c.admit(b, raw)
		if err != nil {
			// The batch is not stored: drop the connection without acking
			// and let the device's retry re-deliver it.
			mColDropped.Inc()
			return
		}
		if published && inTail {
			// The dataset holds tail[:n] now; the next frame decodes past
			// it. A duplicate leaves the tail where it was, to be
			// overwritten.
			tail = tail[n:n]
		}
		mColRxBytes.Add(int64(len(raw)))
		// Acknowledge once the batch is durably in the dataset (or known
		// to be a duplicate of one that already is), so the device can
		// trim its buffer knowing nothing was lost in flight.
		if err := writeReply(conn, reply, batchAck, b.Seq, 0); err != nil {
			return
		}
	}
}

// persistHook, when non-nil, sees every gated batch just before the store
// call, with the gate held but not the store lock — a test seam for
// holding an admit while a duplicate arrives on another connection.
var persistHook func(*Batch)

// admit is the dedup gate: one store call either finds b under the
// device's mark or appends raw — the validated frame b was decoded from,
// as received — and advances the mark; a fresh b is then published and
// shown to OnAdmit. It returns a nil error once b may be acked, and
// whether b's events were published (false for a duplicate). The gate is
// held throughout, so a duplicate of a batch still being persisted waits
// here and is acked only once the original is durable. An error means b
// is not stored: the mark stays put and the retry is admitted as fresh.
func (c *Collector) admit(b *Batch, raw []byte) (published bool, err error) {
	c.gate.Lock()
	defer c.gate.Unlock()
	c.rxBytes += int64(len(raw))
	if h := persistHook; h != nil {
		h(b)
	}
	dup, err := c.opt.Store.appendFresh(raw, b.DeviceID, b.Seq, len(b.Events))
	if err != nil {
		return false, err
	}
	if dup {
		c.dedupHits++
		mColDedupHits.Inc()
		return false, nil
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
	c.batches++
	return true, nil
}
