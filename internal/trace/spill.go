package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
)

// spillWAL is the uploader's on-disk overflow buffer: a single append-only
// file of v3 frames consumed front-to-back. Batches are appended
// in sequence order and only ever read back in that order, so the WAL
// preserves the uploader's seq invariant (every frame's Seq exceeds the
// previous frame's). A frame is not consumed until the collector has
// acknowledged it, so a crash or failed flush re-reads it — at-least-once,
// with collector-side dedup absorbing the re-send.
type spillWAL struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	readOff  int64
	writeOff int64
	batches  int
	events   int64
}

func openSpillWAL(path string) (*spillWAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trace: open spill WAL: %w", err)
	}
	return &spillWAL{f: f, path: path}, nil
}

// offsetWriter adapts WriteAt to io.Writer so WriteBatchV3 can append at a
// stable offset without seeking the shared file descriptor.
type offsetWriter struct {
	f   *os.File
	off int64
}

func (o *offsetWriter) Write(p []byte) (int, error) {
	n, err := o.f.WriteAt(p, o.off)
	o.off += int64(n)
	return n, err
}

// append writes one batch frame at the tail — the same bytes the wire
// will carry when the batch is finally sent.
func (w *spillWAL) append(b *Batch) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := WriteBatchV3(&offsetWriter{f: w.f, off: w.writeOff}, b)
	if err != nil {
		return fmt.Errorf("trace: spill batch: %w", err)
	}
	w.writeOff += int64(n)
	w.batches++
	w.events += int64(len(b.Events))
	return nil
}

// peek decodes the oldest unconsumed frame without consuming it. It
// returns (nil, 0, nil) when the WAL is empty.
func (w *spillWAL) peek() (*Batch, int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.batches == 0 {
		return nil, 0, nil
	}
	sec := io.NewSectionReader(w.f, w.readOff, w.writeOff-w.readOff)
	b, wire, _, err := ReadBatchAny(bufio.NewReader(sec))
	if err != nil {
		return nil, 0, err
	}
	return b, wire, nil
}

// advance consumes the frame peek returned, after it was acknowledged.
// Once the WAL drains, the file is truncated so disk use stays bounded by
// the backlog, not the lifetime total.
func (w *spillWAL) advance(wire, events int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.readOff += int64(wire)
	w.batches--
	w.events -= int64(events)
	if w.batches == 0 {
		w.f.Truncate(0)
		w.readOff, w.writeOff = 0, 0
	}
}

func (w *spillWAL) batchCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.batches
}

func (w *spillWAL) pendingEvents() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.events
}

// close closes and removes the WAL file; its contents are only meaningful
// to the uploader instance that wrote them.
func (w *spillWAL) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.f.Close()
	os.Remove(w.path)
	return err
}
