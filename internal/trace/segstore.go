package trace

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SegStore is the collector's crash-durable backing store: an append-only
// directory of fixed-size segment files, each a sequence of v3 wire
// frames, one per admitted batch. The collector appends the frame bytes it
// received and validated, so a segment holds exactly the bytes that were
// acked, canonical encoding or not (I6); Append encodes a batch for
// callers that hold no frame. The active segment receives appends; once it
// crosses SegmentSize it is sealed — sealed segments are immutable and
// can be read from disk without touching the append path. An in-memory
// index maps (device, seq range) → segment for the /api/segments query
// path. The store owns the per-device seq high-water marks the
// collector's dedup gate reads, and replay rebuilds them, so a restarted
// collector re-acks retried batches instead of double-storing them. The
// store owns no goroutine and no clock: it touches the disk only inside
// the calls made on it.
//
// Durability model: Append performs one direct unbuffered write per
// frame, so once Append returns — and therefore before the collector
// acks the batch — the frame has left the process (it survives SIGKILL
// in the page cache; sealing additionally fsyncs the finished file).
// A crash can leave at most a torn final frame in the active segment,
// and a torn frame is by construction unacknowledged: OpenSegStore
// truncates it away and the device's retry re-delivers it. Everything
// before the tear decodes cleanly and is replayed, so the rebuilt marks
// cover every batch that was ever acked — exactly-once storage holds
// across the crash.
type SegStore struct {
	dir string
	opt SegStoreOptions

	mu            sync.Mutex
	f             *os.File // active segment, opened O_APPEND
	activeOff     int64
	segs          []*segment        // id order; the last entry is the active segment
	marks         map[uint64]uint64 // per-device acked seq high-water mark
	sealedThrough uint64            // highest sealed segment id; sealed files are immutable forever
	truncated     int64             // torn-tail bytes dropped at open
	closed        bool
}

// SegStoreOptions tunes the store. The zero value selects defaults.
type SegStoreOptions struct {
	// SegmentSize is the byte threshold past which the active segment is
	// sealed and a new one opened. <= 0 uses 8 MiB.
	SegmentSize int64
	// ReadOnly opens a directory somebody else wrote — a dead collector's,
	// adopted by a fleet survivor to serve its segments and harvest its
	// marks for SeedMarks, or any store an offline tool analyzes — and
	// never modifies it: the directory must exist, replay rebuilds marks
	// and index, every segment including the tail is treated as sealed and
	// readable, there is no active segment and no checkpoint, Append and
	// Checkpoint fail. The writer may still be alive, mid-write(2) of a
	// frame, so a torn tail is not truncated: replay stops at the last
	// whole frame and reads are bounded to that length.
	ReadOnly bool
}

func (o SegStoreOptions) withDefaults() SegStoreOptions {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 8 << 20
	}
	return o
}

// segment is one file's index entry.
type segment struct {
	id      uint64
	sealed  bool
	bytes   int64
	frames  int
	events  int
	devices map[uint64]*segRange
	info    SegmentInfo // the index entry, built once by seal: a sealed segment never changes
}

// segRange is one device's footprint within a segment.
type segRange struct {
	minSeq, maxSeq uint64
	events         int
}

func (s *segment) note(device, seq uint64, events int) {
	r := s.devices[device]
	if r == nil {
		r = &segRange{minSeq: seq, maxSeq: seq}
		s.devices[device] = r
	} else {
		if seq < r.minSeq {
			r.minSeq = seq
		}
		if seq > r.maxSeq {
			r.maxSeq = seq
		}
	}
	r.events += events
}

// snapshot copies the segment's index entry, device ranges unsorted.
func (s *segment) snapshot() SegmentInfo {
	info := SegmentInfo{
		ID: s.id, Sealed: s.sealed, Bytes: s.bytes,
		Frames: s.frames, Events: s.events,
		Devices: make([]DeviceRange, 0, len(s.devices)),
	}
	for dev, r := range s.devices {
		info.Devices = append(info.Devices, DeviceRange{
			Device: dev, MinSeq: r.minSeq, MaxSeq: r.maxSeq, Events: r.events,
		})
	}
	return info
}

// seal marks the segment immutable and builds the index entry every later
// Segments call hands out.
func (s *segment) seal() {
	s.sealed = true
	s.info = s.snapshot()
	s.info.sortDevices()
}

func (i *SegmentInfo) sortDevices() {
	slices.SortFunc(i.Devices, func(a, b DeviceRange) int { return cmp.Compare(a.Device, b.Device) })
}

// SegmentInfo is the JSON-facing index entry for one segment.
type SegmentInfo struct {
	ID      uint64        `json:"id"`
	Sealed  bool          `json:"sealed"`
	Bytes   int64         `json:"bytes"`
	Frames  int           `json:"frames"`
	Events  int           `json:"events"`
	Devices []DeviceRange `json:"devices"`
}

// DeviceRange is one device's (seq range, event count) within a segment.
type DeviceRange struct {
	Device uint64 `json:"device"`
	MinSeq uint64 `json:"min_seq"`
	MaxSeq uint64 `json:"max_seq"`
	Events int    `json:"events"`
}

var (
	errSegStoreClosed   = errors.New("trace: segment store is closed")
	errSegStoreReadOnly = errors.New("trace: segment store is read-only")
)

const checkpointName = "checkpoint.json"

// checkpointFile is the on-disk checkpoint. It holds what the frames
// cannot say: the seal boundary, and marks no frame of this store shows
// (those inherited at a takeover, see SeedMarks). It is written at open,
// at every seal, at Close and at a seed — an idle store, or one that is
// only appended to, writes nothing. Replay merges its marks with the
// frame-derived ones (taking the max per device), so a stale checkpoint
// can only be caught up, never regress the dedup gate.
type checkpointFile struct {
	SealedThrough uint64            `json:"sealed_through"`
	Marks         map[uint64]uint64 `json:"marks"`
}

func segFileName(id uint64) string { return fmt.Sprintf("seg-%06d.v3s", id) }

func parseSegFileName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".v3s") {
		return 0, false
	}
	id, err := strconv.ParseUint(name[len("seg-"):len(name)-len(".v3s")], 10, 64)
	if err != nil || id == 0 {
		return 0, false
	}
	return id, true
}

func (s *SegStore) segPath(id uint64) string { return filepath.Join(s.dir, segFileName(id)) }

// OpenSegStore opens (creating if needed, unless read-only) the store
// rooted at dir and replays every existing segment to rebuild the index
// and the per-device marks. Each replayed batch is passed to onBatch (may
// be nil) in append order — boot uses this to rebuild the in-memory
// dataset. A torn final frame in the unsealed tail is dropped (it was
// never acked): truncated away, or only skipped when read-only. A decode
// failure anywhere else, or a frame in the tail whose flags byte is not 0
// (one an older encoder gzip'd), fails the open and leaves every file as
// it was.
func OpenSegStore(dir string, opt SegStoreOptions, onBatch func(*Batch)) (*SegStore, error) {
	opt = opt.withDefaults()
	if !opt.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("trace: segstore: %w", err)
		}
	}
	s := &SegStore{
		dir:   dir,
		opt:   opt,
		marks: make(map[uint64]uint64),
	}

	var cp checkpointFile
	if raw, err := os.ReadFile(filepath.Join(dir, checkpointName)); err == nil {
		if err := json.Unmarshal(raw, &cp); err != nil {
			return nil, fmt.Errorf("trace: segstore: checkpoint: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("trace: segstore: %w", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: segstore: %w", err)
	}
	var ids []uint64
	for _, ent := range entries {
		if id, ok := parseSegFileName(ent.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	s.sealedThrough = cp.SealedThrough
	for i, id := range ids {
		// Only a segment past the checkpointed seal boundary may be a
		// crashed unsealed tail; sealed files are immutable forever, so a
		// decode error inside one is corruption, never a torn write.
		tail := i == len(ids)-1 && id > cp.SealedThrough
		seg, err := s.replaySegment(id, tail, onBatch)
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	// For a device with frames here the checkpointed mark can only be
	// behind the frame-derived one; a mark inherited at a takeover has no
	// frame here and lives in the checkpoint alone.
	for dev, seq := range cp.Marks {
		if seq > s.marks[dev] {
			s.marks[dev] = seq
		}
	}

	if opt.ReadOnly {
		// Adopt mode: seal everything in memory so ReadSegment and the
		// query APIs can serve the whole directory, and never write — no
		// active segment, no checkpoint. The on-disk checkpoint stays as the
		// dead process left it; a later read-write reopen replays from the
		// frames as usual.
		for _, seg := range s.segs {
			if !seg.sealed {
				seg.seal()
				s.sealedThrough = seg.id
			}
		}
		return s, nil
	}

	// The highest-numbered segment resumes as the active tail unless it
	// was already sealed (clean close) or has crossed the size threshold;
	// either way a sealed file is never appended to again.
	nextID := uint64(1)
	if n := len(s.segs); n > 0 {
		tail := s.segs[n-1]
		nextID = tail.id + 1
		if !tail.sealed && tail.bytes < opt.SegmentSize {
			f, err := os.OpenFile(s.segPath(tail.id), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("trace: segstore: %w", err)
			}
			s.f, s.activeOff = f, tail.bytes
		} else if !tail.sealed {
			tail.seal()
			s.sealedThrough = tail.id
			mSegSealed.Inc()
		}
	}
	if s.f == nil {
		if err := s.openSegmentLocked(nextID); err != nil {
			return nil, err
		}
	}
	if err := s.checkpointLocked(); err != nil {
		s.f.Close()
		return nil, err
	}
	return s, nil
}

// replaySegment decodes one segment file frame by frame, rebuilding its
// index entry, advancing the marks, and feeding onBatch. For the tail
// segment a decode error past the last good frame is a torn write: the
// segment ends at the frame boundary, and a read-write open truncates the
// file back to it. An older build's frame — a tag from 0xA3 to 0xA5 or a
// flags byte other than 0 — is no torn write, and fails the open as any
// decode error in a sealed segment does.
func (s *SegStore) replaySegment(id uint64, tail bool, onBatch func(*Batch)) (*segment, error) {
	path := s.segPath(id)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: segstore: %w", err)
	}
	defer f.Close()
	seg := &segment{id: id, devices: make(map[uint64]*segRange)}
	br := bufio.NewReaderSize(f, 1<<16)
	good := int64(0)
	var buf []byte // one frame buffer for the whole segment
	for {
		b := new(Batch) // each callback gets a Batch of its own
		raw, err := ReadFrameRaw(br, buf, b)
		if err == io.EOF {
			break
		}
		if err != nil {
			if !tail {
				return nil, fmt.Errorf("trace: segstore: sealed segment %s is corrupt at offset %d: %w", path, good, err)
			}
			if errors.Is(err, errV3Older) {
				// No tear of a frame this store wrote begins like an older
				// encoder's frame: that frame is whole and may have been
				// acked, so cutting it would lose it.
				return nil, fmt.Errorf("trace: segstore: tail segment %s holds a frame no reader accepts at offset %d: %w", path, good, err)
			}
			// Torn tail: the frame was cut mid-write, so its batch was never
			// acked — drop it and let the retry restore it. A read-write open
			// owns the directory (its writer is dead) and cuts the file back;
			// a read-only open may be reading beside a live writer that will
			// complete and ack this very frame, so it must not touch it.
			size := good
			if fi, err := f.Stat(); err == nil {
				size = fi.Size()
			}
			if !s.opt.ReadOnly {
				if err := os.Truncate(path, good); err != nil {
					return nil, fmt.Errorf("trace: segstore: truncate torn tail of %s: %w", path, err)
				}
			}
			s.truncated += size - good
			mSegTruncated.Add(size - good)
			break
		}
		buf = raw[:0]
		good += int64(len(raw))
		seg.frames++
		seg.events += len(b.Events)
		seg.note(b.DeviceID, b.Seq, len(b.Events))
		if b.Seq > s.marks[b.DeviceID] {
			s.marks[b.DeviceID] = b.Seq
		}
		mSegReplayed.Inc()
		if onBatch != nil {
			onBatch(b)
		}
	}
	seg.bytes = good
	if !tail {
		seg.seal()
	}
	return seg, nil
}

// openSegmentLocked creates and activates segment id.
func (s *SegStore) openSegmentLocked(id uint64) error {
	f, err := os.OpenFile(s.segPath(id), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("trace: segstore: %w", err)
	}
	s.f, s.activeOff = f, 0
	s.segs = append(s.segs, &segment{id: id, devices: make(map[uint64]*segRange)})
	return nil
}

// Append encodes b as one v3 frame and appends it without a mark check:
// a run directory's Seq 0 frames and any writer that holds no frame go
// through it.
func (s *SegStore) Append(b *Batch) error {
	fp := getScratch(1 << 10)
	defer putScratch(fp)
	frame, err := AppendBatchV3((*fp)[:0], b)
	if err != nil {
		return err
	}
	*fp = frame
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(frame, b.DeviceID, b.Seq, len(b.Events))
}

// appendFresh is the collector's dedup check: in one hold of the store
// lock it reports a duplicate if the device's mark covers seq, and
// otherwise appends frame and advances the mark.
func (s *SegStore) appendFresh(frame []byte, device, seq uint64, events int) (dup bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.marks[device] {
		return true, nil
	}
	return false, s.appendLocked(frame, device, seq, events)
}

// appendLocked appends frame — one complete, validated v3 frame carrying
// the given device, seq and event count — to the active segment with a
// single unbuffered write, advancing the index and the device's
// high-water mark. The bytes go to disk as they are. When the write
// returns, the frame is durable against process death — callers ack only
// after it succeeds. Crossing SegmentSize seals the segment (fsync, mark
// immutable, checkpoint) and opens the next one. A frame whose write
// landed is stored, so a failed seal does not fail its append: it is
// counted, and a seal that left no active segment makes the next append
// open the successor before it writes, or fail before writing anything.
// Caller holds s.mu.
func (s *SegStore) appendLocked(frame []byte, device, seq uint64, events int) error {
	if s.closed {
		return errSegStoreClosed
	}
	if s.opt.ReadOnly {
		return errSegStoreReadOnly
	}
	if s.f == nil {
		if err := s.openSegmentLocked(s.segs[len(s.segs)-1].id + 1); err != nil {
			return err
		}
	}
	if _, err := s.f.Write(frame); err != nil {
		// A partial append would corrupt the next frame's framing: roll the
		// file back to the last frame boundary before reporting failure.
		s.f.Truncate(s.activeOff)
		return fmt.Errorf("trace: segstore: append: %w", err)
	}
	s.activeOff += int64(len(frame))
	seg := s.segs[len(s.segs)-1]
	seg.bytes = s.activeOff
	seg.frames++
	seg.events += events
	seg.note(device, seq, events)
	if seq > s.marks[device] {
		s.marks[device] = seq
	}
	mSegAppends.Inc()
	mSegBytes.Add(int64(len(frame)))
	if s.activeOff >= s.opt.SegmentSize {
		if err := s.sealLocked(); err != nil {
			mSegSealErrors.Inc()
		}
	}
	return nil
}

// sealLocked closes out the active segment — fsync so the finished file
// survives power loss, not just process death — marks it immutable,
// checkpoints, and opens the successor. A failed fsync leaves the segment
// active, to be sealed again after the next append; once the file is
// synced the segment is sealed and s.f is nil until a successor opens.
func (s *SegStore) sealLocked() error {
	seg := s.segs[len(s.segs)-1]
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("trace: segstore: seal: %w", err)
	}
	s.f.Close() // synced: close has no unwritten byte left to lose
	s.f = nil
	seg.seal()
	s.sealedThrough = seg.id
	mSegSealed.Inc()
	if err := s.openSegmentLocked(seg.id + 1); err != nil {
		return err
	}
	return s.checkpointLocked()
}

// checkpointLocked writes the checkpoint atomically (temp file + rename).
func (s *SegStore) checkpointLocked() error {
	cp := checkpointFile{SealedThrough: s.sealedThrough, Marks: s.marks}
	raw, err := json.Marshal(&cp)
	if err != nil {
		return fmt.Errorf("trace: segstore: checkpoint: %w", err)
	}
	tmp := filepath.Join(s.dir, checkpointName+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("trace: segstore: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, checkpointName)); err != nil {
		return fmt.Errorf("trace: segstore: checkpoint: %w", err)
	}
	mSegCheckpoints.Inc()
	return nil
}

// Checkpoint forces a mark/index checkpoint now.
func (s *SegStore) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errSegStoreClosed
	}
	if s.opt.ReadOnly {
		return errSegStoreReadOnly
	}
	return s.checkpointLocked()
}

// SeedMarks raises the per-device marks to at least the given sequence
// numbers and returns how many devices it raised. A fleet survivor is
// seeded with a dead member's replayed marks before the ring reroutes
// its devices, so a retry of a batch the dead member stored without
// acking dedups here (I7). Inherited marks appear in no frame of this
// store, so SeedMarks checkpoints them before it returns, and every later
// open merges them back; a seed whose checkpoint fails is undone, since
// the gate must not dup-ack on a mark that is not on disk. A closed store
// still takes a seed: a reopen must find the marks all the same.
func (s *SegStore) SeedMarks(marks map[uint64]uint64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opt.ReadOnly {
		return 0, errSegStoreReadOnly
	}
	before := maps.Clone(s.marks)
	raised := 0
	for dev, seq := range marks {
		if seq > s.marks[dev] {
			s.marks[dev] = seq
			raised++
		}
	}
	if raised == 0 {
		return 0, nil
	}
	if err := s.checkpointLocked(); err != nil {
		s.marks = before
		return 0, err
	}
	mColTakeover.Add(int64(raised))
	return raised, nil
}

// Dir returns the store's root directory.
func (s *SegStore) Dir() string { return s.dir }

// truncatedBytes reports how many torn-tail bytes the last open dropped:
// cut from the file by a read-write open, left on disk past the segment's
// indexed length by a read-only one.
func (s *SegStore) truncatedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.truncated
}

// Marks returns a copy of the per-device acked seq high-water marks, the
// ones the collector's dedup gate reads.
func (s *SegStore) Marks() map[uint64]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]uint64, len(s.marks))
	for dev, seq := range s.marks {
		out[dev] = seq
	}
	return out
}

// Segments returns the index: one entry per segment in id order, device
// ranges sorted by device. The append lock is held only to copy: a sealed
// segment hands out the entry built when it sealed (its Devices slice is
// shared — callers must not modify it), and the active segment's ranges
// are sorted after the lock is released.
func (s *SegStore) Segments() []SegmentInfo {
	s.mu.Lock()
	out := make([]SegmentInfo, len(s.segs))
	for i, seg := range s.segs {
		if seg.sealed {
			out[i] = seg.info
		} else {
			out[i] = seg.snapshot()
		}
	}
	s.mu.Unlock()
	for i := range out {
		if !out[i].Sealed {
			out[i].sortDevices()
		}
	}
	return out
}

// sealedPath resolves id to its file path and its length in whole frames
// — the file's size, except for a tail a read-only open found torn — if
// the segment exists and is sealed. Only sealed segments are readable:
// they are immutable, so the read needs no coordination with the append
// path.
func (s *SegStore) sealedPath(id uint64) (string, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		if seg.id == id {
			if !seg.sealed {
				return "", 0, fmt.Errorf("trace: segstore: segment %d is not sealed yet", id)
			}
			return s.segPath(id), seg.bytes, nil
		}
	}
	return "", 0, fmt.Errorf("trace: segstore: no segment %d", id)
}

// segReader is ReadSegment's reading state: a 64 KiB reader, a frame
// buffer and a Batch whose Events capacity a frame decodes into.
// segReaderPool recycles it: a dashboard polls a segment's first page over
// and over, and a reader, a frame buffer and a bulk frame's events per
// read were nearly all the bytes such a read allocated.
type segReader struct {
	br  *bufio.Reader
	buf []byte
	b   Batch
}

const (
	// segReaderMaxBuf and segReaderMaxEvents bound the frame buffer and
	// the event slice a segReader takes back into segReaderPool: a run
	// directory's 4096-event frames fit both, and a larger one, a
	// pathological frame's, is dropped there.
	segReaderMaxBuf    = 1 << 20
	segReaderMaxEvents = 1 << 12
)

var segReaderPool = sync.Pool{New: func() any { return &segReader{br: bufio.NewReaderSize(nil, 1<<16)} }}

// ReadSegment streams the batches of sealed segment id from disk in
// append order. It holds no store lock while reading, so ingest into the
// active segment continues unimpeded. fn must not keep b or its Events:
// one Batch serves every frame, and its events are decoded over by the
// next frame and the next read.
func (s *SegStore) ReadSegment(id uint64, fn func(*Batch) error) error {
	path, size, err := s.sealedPath(id)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("trace: segstore: %w", err)
	}
	defer f.Close()
	r := segReaderPool.Get().(*segReader)
	r.br.Reset(io.LimitReader(f, size))
	defer func() {
		r.br.Reset(nil) // drop the file
		if cap(r.buf) > segReaderMaxBuf {
			r.buf = nil
		}
		if cap(r.b.Events) > segReaderMaxEvents {
			r.b.Events = nil
		}
		segReaderPool.Put(r)
	}()
	for {
		r.b.Events = r.b.Events[:0]
		raw, err := ReadFrameRaw(r.br, r.buf, &r.b)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: segstore: read segment %d: %w", id, err)
		}
		r.buf = raw[:0]
		if err := fn(&r.b); err != nil {
			return err
		}
	}
}

// Close seals the active segment and writes a final checkpoint. After
// Close every segment is sealed and remains readable via ReadSegment. An
// active segment that holds no frame is removed instead, so a clean
// restart leaves no empty file behind: the checkpoint keeps sealing
// through the last segment with frames, and the next open reuses the id
// as an unsealed tail — a torn write there is truncated, not corruption.
func (s *SegStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.opt.ReadOnly {
		// Nothing was ever open for writing; there is nothing to seal.
		return nil
	}
	var err error
	if s.f == nil {
		// A failed seal already sealed the tail and opened no successor.
		return s.checkpointLocked()
	}
	if serr := s.f.Sync(); serr != nil {
		err = serr
	}
	if cerr := s.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if tail := s.segs[len(s.segs)-1]; tail.frames == 0 {
		if rerr := os.Remove(s.segPath(tail.id)); rerr != nil && err == nil {
			err = rerr
		}
		s.segs = s.segs[:len(s.segs)-1]
	} else {
		tail.seal()
		s.sealedThrough = tail.id
		mSegSealed.Inc()
	}
	if cerr := s.checkpointLocked(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Kill simulates a crash for tests and the chaos harness: the file
// handle closes, but no seal, sync, or final checkpoint is written — the
// directory is left exactly as SIGKILL would leave it, and in-flight
// Appends fail without acking.
func (s *SegStore) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.f != nil {
		s.f.Close()
	}
}
