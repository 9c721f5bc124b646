package trace

import (
	"fmt"
	"os"
	"sync"
)

// spillWAL is the uploader's on-disk overflow buffer: a single append-only
// file of sealed v3 frames consumed front-to-back. Frames are appended in
// sequence order and only ever read back in that order, so the WAL
// preserves the uploader's seq invariant (every frame's Seq exceeds the
// previous frame's). A frame is not consumed until the collector has
// acknowledged it, so a failed flush re-reads it — at-least-once, with
// collector-side dedup absorbing the re-send. The file is private to one
// uploader instance, so each frame's Seq, event count and size are kept in
// memory at append, and a resend reads the stored bytes back as they are:
// nothing is decoded or encoded again.
type spillWAL struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	readOff  int64
	writeOff int64
	frames   []walFrame // unconsumed frames, oldest first
	events   int64
	buf      []byte // peek's read buffer
}

// walFrame is what the WAL recorded about one frame it stored.
type walFrame struct {
	seq    uint64
	events int
	size   int
}

func openSpillWAL(path string) (*spillWAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trace: open spill WAL: %w", err)
	}
	return &spillWAL{f: f, path: path}, nil
}

// append writes one sealed frame at the tail: the very bytes the wire will
// carry when the frame is finally sent.
func (w *spillWAL) append(seq uint64, events int, frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.WriteAt(frame, w.writeOff); err != nil {
		return fmt.Errorf("trace: spill batch: %w", err)
	}
	w.writeOff += int64(len(frame))
	w.frames = append(w.frames, walFrame{seq: seq, events: events, size: len(frame)})
	w.events += int64(events)
	return nil
}

// peek reads the oldest unconsumed frame back without consuming it and
// returns it with its Seq and event count; frame is nil when the WAL is
// empty. frame is the WAL's read buffer: valid until the next peek, and
// only the flush that holds the uploader's sendMu calls peek.
func (w *spillWAL) peek() (seq uint64, events int, frame []byte, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.frames) == 0 {
		return 0, 0, nil, nil
	}
	head := w.frames[0]
	if cap(w.buf) < head.size {
		w.buf = make([]byte, head.size)
	}
	frame = w.buf[:head.size]
	if _, err := w.f.ReadAt(frame, w.readOff); err != nil {
		return 0, 0, nil, err
	}
	return head.seq, head.events, frame, nil
}

// advance consumes the frame peek returned, after it was acknowledged.
// Once the WAL drains, the file is truncated so disk use stays bounded by
// the backlog, not the lifetime total.
func (w *spillWAL) advance() {
	w.mu.Lock()
	defer w.mu.Unlock()
	head := w.frames[0]
	n := copy(w.frames, w.frames[1:])
	w.frames = w.frames[:n]
	w.readOff += int64(head.size)
	w.events -= int64(head.events)
	if n == 0 {
		w.f.Truncate(0)
		w.readOff, w.writeOff = 0, 0
	}
}

func (w *spillWAL) batchCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.frames)
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
