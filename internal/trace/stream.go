package trace

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/failure"
)

// StreamWriter writes events as a sequence of framed, compressed batches,
// so a reader can process a dataset of any size with O(1) memory —
// the format a backend ingesting billions of events actually needs.
type StreamWriter struct {
	w     io.Writer
	buf   []failure.Event
	chunk int
	wrote int
}

// DefaultStreamChunk is the events-per-frame default.
const DefaultStreamChunk = 4096

// NewStreamWriter creates a writer flushing every chunkSize events
// (<=0 uses DefaultStreamChunk).
func NewStreamWriter(w io.Writer, chunkSize int) *StreamWriter {
	if chunkSize <= 0 {
		chunkSize = DefaultStreamChunk
	}
	return &StreamWriter{w: w, chunk: chunkSize}
}

// Write buffers one event, flushing a frame when the chunk fills.
func (sw *StreamWriter) Write(e failure.Event) error {
	sw.buf = append(sw.buf, e)
	if len(sw.buf) >= sw.chunk {
		return sw.Flush()
	}
	return nil
}

// Flush writes any buffered events as one v3 frame with DeviceID and Seq
// zero: stream chunks are not uploads and carry no dedup state.
func (sw *StreamWriter) Flush() error {
	if len(sw.buf) == 0 {
		return nil
	}
	if _, err := WriteBatchV3(sw.w, &Batch{Events: sw.buf}); err != nil {
		return err
	}
	sw.wrote += len(sw.buf)
	sw.buf = sw.buf[:0]
	return nil
}

// Count returns the number of events durably written (flushed).
func (sw *StreamWriter) Count() int { return sw.wrote }

// StreamReader iterates a stream written by StreamWriter.
type StreamReader struct {
	br  *bufio.Reader
	cur []failure.Event
	idx int
	err error
}

// NewStreamReader wraps r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{br: bufio.NewReader(r)}
}

// Next returns the next event, or io.EOF at a clean end of stream.
func (sr *StreamReader) Next() (*failure.Event, error) {
	if sr.err != nil {
		return nil, sr.err
	}
	for sr.idx >= len(sr.cur) {
		b, _, _, err := ReadBatchAny(sr.br)
		if err != nil {
			sr.err = err
			return nil, err
		}
		sr.cur = b.Events
		sr.idx = 0
	}
	e := &sr.cur[sr.idx]
	sr.idx++
	return e, nil
}

// EachStream reads every event from r, calling fn; it returns nil on a
// clean EOF.
func EachStream(r io.Reader, fn func(*failure.Event)) error {
	sr := NewStreamReader(r)
	for {
		e, err := sr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: stream read: %w", err)
		}
		fn(e)
	}
}

// WriteStream dumps the dataset in streaming format.
func (d *Dataset) WriteStream(w io.Writer, chunkSize int) error {
	sw := NewStreamWriter(w, chunkSize)
	var werr error
	d.Each(func(e *failure.Event) {
		if werr == nil {
			werr = sw.Write(*e)
		}
	})
	if werr != nil {
		return werr
	}
	return sw.Flush()
}
