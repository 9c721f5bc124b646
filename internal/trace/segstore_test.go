package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// storeBatches builds n sequenced batches for device dev, k events each.
func storeBatches(dev uint64, n, k int) []*Batch {
	out := make([]*Batch, 0, n)
	for i := 0; i < n; i++ {
		events := sampleEvents(k)
		for j := range events {
			events[j].DeviceID = dev
		}
		out = append(out, &Batch{DeviceID: dev, Seq: uint64(i + 1), Events: events})
	}
	return out
}

// TestSegStoreReplayRoundTrip closes a store cleanly and reopens it: the
// replayed dataset must be the exact multiset that was appended, the
// marks must match the highest appended seq per device, and every
// segment must be sealed after Close.
func TestSegStoreReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := NewDataset()
	for _, dev := range []uint64{3, 9} {
		for _, b := range storeBatches(dev, 4, 5) {
			if err := st.Append(b); err != nil {
				t.Fatal(err)
			}
			ReplayInto(want)(b)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	got := NewDataset()
	st2, err := OpenSegStore(dir, SegStoreOptions{}, ReplayInto(got))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got.MultisetDigest() != want.MultisetDigest() || got.Len() != want.Len() {
		t.Fatalf("replayed dataset %d events %s, want %d events %s",
			got.Len(), got.MultisetDigest(), want.Len(), want.MultisetDigest())
	}
	marks := st2.Marks()
	if marks[3] != 4 || marks[9] != 4 {
		t.Fatalf("replayed marks = %v, want seq 4 for devices 3 and 9", marks)
	}
	for _, info := range st2.Segments() {
		if !info.Sealed && info.Frames > 0 {
			t.Errorf("segment %d holds replayed frames but is not sealed after a clean close", info.ID)
		}
	}
}

// TestSegStoreSealsAndIndexes drives the store over a tiny segment size
// so it rolls files, and checks the (device, seq range) index.
func TestSegStoreSealsAndIndexes(t *testing.T) {
	st, err := OpenSegStore(t.TempDir(), SegStoreOptions{SegmentSize: 1024}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	batches := storeBatches(7, 10, 8)
	for _, b := range batches {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	infos := st.Segments()
	if len(infos) < 2 {
		t.Fatalf("expected multiple segments past the 1KiB threshold, got %d", len(infos))
	}
	frames, events, sealed := 0, 0, 0
	var lastMax uint64
	for i, info := range infos {
		if info.ID != uint64(i+1) {
			t.Errorf("segment id %d at index %d, want %d", info.ID, i, i+1)
		}
		if info.Sealed {
			sealed++
		}
		frames += info.Frames
		events += info.Events
		for _, dr := range info.Devices {
			if dr.Device != 7 {
				t.Errorf("unexpected device %d in index", dr.Device)
			}
			if dr.MinSeq <= lastMax && info.Frames > 0 {
				t.Errorf("segment %d seq range [%d,%d] overlaps previous max %d",
					info.ID, dr.MinSeq, dr.MaxSeq, lastMax)
			}
			lastMax = dr.MaxSeq
		}
	}
	if frames != len(batches) || events != 10*8 {
		t.Fatalf("index sums: %d frames %d events, want %d and %d", frames, events, len(batches), 80)
	}
	if sealed == 0 {
		t.Fatal("no segment was sealed")
	}
}

// dirState reads every file under dir, so a test can assert that an open
// changed nothing.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[string]string, len(entries))
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[ent.Name()] = string(raw)
	}
	return state
}

// TestSegStoreTornTailTruncated simulates a crash mid-write: the final
// frame of the unsealed tail is cut short on disk. A read-only open — its
// writer may be alive and about to finish that very frame — must leave
// every file as it is and serve the whole frames only, through replay,
// ReadSegment and the data endpoint alike. A read-write open must then
// truncate the torn frame away, keep everything before it, and leave the
// marks at the last intact frame — the torn batch was never acked, so its
// retry restores it.
func TestSegStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range storeBatches(5, 3, 4) {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	st.Kill() // crash: no seal, no final checkpoint

	path := filepath.Join(dir, segFileName(1))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	torn := dirState(t, dir)

	replayed := 0
	ro, err := OpenSegStore(dir, SegStoreOptions{ReadOnly: true}, func(b *Batch) { replayed += len(b.Events) })
	if err != nil {
		t.Fatal(err)
	}
	info := ro.Segments()[0]
	if replayed != 2*4 || info.Frames != 2 || !info.Sealed {
		t.Fatalf("read-only replay: %d events, index %+v; want the two intact frames, sealed", replayed, info)
	}
	if ro.TruncatedBytes() == 0 || info.Bytes+ro.TruncatedBytes() != fi.Size()-3 {
		t.Fatalf("read-only open: %d whole + %d torn bytes of a %d-byte file", info.Bytes, ro.TruncatedBytes(), fi.Size()-3)
	}
	read := 0
	if err := ro.ReadSegment(1, func(b *Batch) error { read += len(b.Events); return nil }); err != nil || read != 2*4 {
		t.Fatalf("ReadSegment over the torn tail: %d events, err %v; want 8 and none", read, err)
	}
	mux := http.NewServeMux()
	NewStoreAPI(ro).Routes(mux)
	srv := httptest.NewServer(mux)
	code, body := storeAPIGet(t, srv, "/api/segments/data?id=1")
	srv.Close()
	if code != http.StatusOK || string(body) != torn[segFileName(1)][:info.Bytes] {
		t.Fatalf("data endpoint: status %d, %d bytes; want the %d bytes of the whole frames", code, len(body), info.Bytes)
	}
	if m := ro.Marks()[5]; m != 2 {
		t.Fatalf("read-only mark = %d after torn seq-3 frame, want 2", m)
	}
	ro.Close()
	if !reflect.DeepEqual(dirState(t, dir), torn) {
		t.Fatal("a read-only open modified the directory")
	}

	got := NewDataset()
	st2, err := OpenSegStore(dir, SegStoreOptions{}, ReplayInto(got))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2*4 {
		t.Fatalf("replayed %d events after torn tail, want 8 (two intact frames)", got.Len())
	}
	if st2.TruncatedBytes() == 0 {
		t.Fatal("torn tail was not truncated")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != info.Bytes {
		t.Fatalf("read-write open left the tail at %v, want the frame boundary %d (err %v)", fi, info.Bytes, err)
	}
	if m := st2.Marks()[5]; m != 2 {
		t.Fatalf("mark = %d after torn seq-3 frame, want 2", m)
	}
	// The retry lands cleanly on the truncated tail.
	retry := storeBatches(5, 3, 4)[2]
	if err := st2.Append(retry); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	final := NewDataset()
	st3, err := OpenSegStore(dir, SegStoreOptions{}, ReplayInto(final))
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if final.Len() != 3*4 || st3.Marks()[5] != 3 {
		t.Fatalf("after retry: %d events, mark %d; want 12 and 3", final.Len(), st3.Marks()[5])
	}
}

// TestSegStoreReadOnlyMissingDir: a read-only open creates nothing, so a
// directory that is not there is an error, not an empty store.
func TestSegStoreReadOnlyMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nope")
	if st, err := OpenSegStore(dir, SegStoreOptions{ReadOnly: true}, nil); err == nil {
		st.Close()
		t.Fatal("read-only open of a missing directory succeeded")
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("read-only open created the directory (stat err %v)", err)
	}
}

// TestSegStoreEmptySegmentReplaysNothing: a store written before Close
// removed an empty tail holds one empty sealed segment per clean boot;
// replaying them yields no frames and no events, and the frames before
// them survive.
func TestSegStoreEmptySegmentReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(storeBatches(4, 1, 3)[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{2, 3} {
		if err := os.WriteFile(filepath.Join(dir, segFileName(id)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	events := 0
	ro, err := OpenSegStore(dir, SegStoreOptions{ReadOnly: true}, func(b *Batch) { events += len(b.Events) })
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	infos := ro.Segments()
	if len(infos) != 3 || events != 3 {
		t.Fatalf("%d segments, %d events; want 3 segments (two empty) and 3 events", len(infos), events)
	}
	for _, info := range infos {
		if empty := info.ID != 1; empty && (info.Bytes != 0 || info.Frames != 0 || info.Events != 0) {
			t.Errorf("empty segment indexed as %+v", info)
		}
		if err := ro.ReadSegment(info.ID, func(*Batch) error { return nil }); err != nil {
			t.Errorf("ReadSegment(%d): %v", info.ID, err)
		}
	}
}

// segFiles lists the segment file names under dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	for name := range dirState(t, dir) {
		if _, ok := parseSegFileName(name); ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// TestSegStoreCleanRestartsLeaveOneSegment opens and closes a store again
// and again: Close removes the empty active segment instead of sealing it,
// so the directory keeps one file and the checkpoint seals through it. The
// next open reuses the removed id as an unsealed tail: appends resume
// there, and a torn write into it is truncated, not reported as a corrupt
// sealed segment.
func TestSegStoreCleanRestartsLeaveOneSegment(t *testing.T) {
	dir := t.TempDir()
	batches := storeBatches(4, 2, 3)
	sealedThrough := func() uint64 {
		t.Helper()
		var cp checkpointFile
		if err := json.Unmarshal([]byte(dirState(t, dir)[checkpointName]), &cp); err != nil {
			t.Fatal(err)
		}
		return cp.SealedThrough
	}
	for boot := 0; boot < 5; boot++ {
		st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if boot == 0 {
			if err := st.Append(batches[0]); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if len(st.Segments()) != 1 {
			t.Fatalf("boot %d: the closed store indexes %+v, want one segment", boot, st.Segments())
		}
	}
	if files := segFiles(t, dir); !slices.Equal(files, []string{segFileName(1)}) || sealedThrough() != 1 {
		t.Fatalf("after five clean boots: files %v, sealed through %d; want only %s, sealed through 1",
			files, sealedThrough(), segFileName(1))
	}

	// A crash tears a frame written into the reused id.
	st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(batches[1]); err != nil {
		t.Fatal(err)
	}
	st.Kill()
	path := filepath.Join(dir, segFileName(2))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	got := NewDataset()
	st, err = OpenSegStore(dir, SegStoreOptions{}, ReplayInto(got))
	if err != nil {
		t.Fatalf("open over a torn frame in the reused id: %v", err)
	}
	if st.TruncatedBytes() != fi.Size()-3 || got.Len() != 3 || st.Marks()[4] != 1 {
		t.Fatalf("torn reused tail: %d bytes truncated, %d events, mark %d; want %d, 3 and 1",
			st.TruncatedBytes(), got.Len(), st.Marks()[4], fi.Size()-3)
	}
	// The retry resumes in it, and the next clean boot adds no file.
	if err := st.Append(batches[1]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{segFileName(1), segFileName(2)}
	if files := segFiles(t, dir); !slices.Equal(files, want) || sealedThrough() != 2 {
		t.Fatalf("after the retry: files %v, sealed through %d; want %v, sealed through 2", files, sealedThrough(), want)
	}
	got = NewDataset()
	ro, err := OpenSegStore(dir, SegStoreOptions{ReadOnly: true}, ReplayInto(got))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if got.Len() != 6 || ro.Marks()[4] != 2 {
		t.Fatalf("replayed %d events, mark %d; want 6 and 2", got.Len(), ro.Marks()[4])
	}
}

// TestSegStoreSealedCorruptionNamesFileAndOffset flips one byte inside a
// sealed segment. Sealed files are immutable, so this is corruption, not
// a torn write: no open may paper over it, and the error must say which
// file broke and where the last good frame ended.
func TestSegStoreSealedCorruptionNamesFileAndOffset(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{SegmentSize: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	batches := storeBatches(6, 8, 6)
	for _, b := range batches {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	first, err := AppendBatchV3(nil, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segFileName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= len(first)+1 {
		t.Fatalf("segment 1 holds %d bytes, want more than one %d-byte frame", len(raw), len(first))
	}
	raw[len(first)+1] ^= 0xFF // the second frame's flags byte: no such flags
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirState(t, dir)
	for _, opt := range []SegStoreOptions{{ReadOnly: true}, {}} {
		st, err := OpenSegStore(dir, opt, nil)
		if err == nil {
			st.Close()
			t.Fatalf("open %+v accepted a corrupt sealed segment", opt)
		}
		want := fmt.Sprintf("%s is corrupt at offset %d", path, len(first))
		if !strings.Contains(err.Error(), want) {
			t.Errorf("open %+v: error %q does not say %q", opt, err, want)
		}
	}
	if !reflect.DeepEqual(dirState(t, dir), before) {
		t.Error("a failed open modified the directory")
	}
}

// TestSegStoreKillLeavesStaleCheckpoint kills the store before any seal:
// the on-disk checkpoint, written at open, still holds no marks, and
// reopen must rebuild them from the frames alone — for a store's own
// frames the checkpoint is never the source of truth.
func TestSegStoreKillLeavesStaleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range storeBatches(11, 5, 2) {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	st.Kill()

	raw, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpointFile
	if err := json.Unmarshal(raw, &cp); err != nil {
		t.Fatal(err)
	}
	if len(cp.Marks) != 0 {
		t.Fatalf("checkpoint written after Kill carries marks %v — Kill must not checkpoint", cp.Marks)
	}
	st2, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if m := st2.Marks()[11]; m != 5 {
		t.Fatalf("frame-derived mark = %d, want 5 despite the stale checkpoint", m)
	}
}

// TestSegStoreCheckpointMarksMerge plants a checkpoint whose mark runs
// ahead of the frames (as if segments had been pruned) and asserts the
// reopen takes the max — the dedup gate can only be caught up by a
// checkpoint, never regressed.
func TestSegStoreCheckpointMarksMerge(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range storeBatches(2, 2, 3) {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cp := checkpointFile{Marks: map[uint64]uint64{2: 9, 4: 6}}
	raw, _ := json.Marshal(&cp)
	if err := os.WriteFile(filepath.Join(dir, checkpointName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	marks := st2.Marks()
	if marks[2] != 9 || marks[4] != 6 {
		t.Fatalf("merged marks = %v, want device 2 at 9 and device 4 at 6", marks)
	}
}

// TestSegStoreReadSegmentSealedOnly: the active segment is not readable
// (it is still being appended to); sealed ones stream their batches in
// append order.
func TestSegStoreReadSegmentSealedOnly(t *testing.T) {
	st, err := OpenSegStore(t.TempDir(), SegStoreOptions{SegmentSize: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, b := range storeBatches(1, 6, 6) {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	infos := st.Segments()
	active := infos[len(infos)-1]
	if active.Sealed {
		t.Fatal("tail segment unexpectedly sealed")
	}
	if err := st.ReadSegment(active.ID, func(*Batch) error { return nil }); err == nil {
		t.Fatal("ReadSegment on the active segment must fail")
	}
	var lastSeq uint64
	frames := 0
	if err := st.ReadSegment(infos[0].ID, func(b *Batch) error {
		if b.Seq <= lastSeq {
			t.Errorf("segment read out of append order: seq %d after %d", b.Seq, lastSeq)
		}
		lastSeq = b.Seq
		frames++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if frames != infos[0].Frames {
		t.Fatalf("read %d frames, index says %d", frames, infos[0].Frames)
	}
}

// TestSegStoreReadOnlyAdopt opens a killed collector's directory in
// read-only mode: the replayed marks match what the dead store held,
// every segment — including the former active tail — is sealed and
// readable, and writes are refused.
func TestSegStoreReadOnlyAdopt(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{SegmentSize: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := NewDataset()
	for _, dev := range []uint64{5, 9} {
		for _, b := range storeBatches(dev, 4, 6) {
			want.Publish(b.Events)
			if err := st.Append(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveSegs := len(st.Segments())
	st.Kill()

	ro, err := OpenSegStore(dir, SegStoreOptions{ReadOnly: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if marks := ro.Marks(); marks[5] != 4 || marks[9] != 4 {
		t.Fatalf("adopted marks = %v, want devices 5 and 9 at seq 4", marks)
	}
	infos := ro.Segments()
	if len(infos) != liveSegs {
		t.Fatalf("adopted store indexes %d segments, dead store had %d", len(infos), liveSegs)
	}
	got := NewDataset()
	for _, info := range infos {
		if !info.Sealed {
			t.Fatalf("adopted segment %d not sealed", info.ID)
		}
		if err := ro.ReadSegment(info.ID, func(b *Batch) error {
			got.Publish(slices.Clone(b.Events))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got.Len() != want.Len() || got.MultisetDigest() != want.MultisetDigest() {
		t.Fatalf("adopted replay: %d events digest %s, wrote %d digest %s",
			got.Len(), got.MultisetDigest(), want.Len(), want.MultisetDigest())
	}
	if err := ro.Append(storeBatches(5, 1, 1)[0]); !errors.Is(err, errSegStoreReadOnly) {
		t.Fatalf("Append on read-only store = %v, want errSegStoreReadOnly", err)
	}
	if err := ro.Checkpoint(); !errors.Is(err, errSegStoreReadOnly) {
		t.Fatalf("Checkpoint on read-only store = %v, want errSegStoreReadOnly", err)
	}
}

// TestSegStoreOwnsNoGoroutineAndNoClock: an open store runs nothing of
// its own — the goroutine count never rises across open, appends, Close
// and Kill — and checkpoint.json is rewritten exactly when it has
// something to say the frames cannot: at a seal, at a seed, at Close.
// Appends that stay inside one segment leave the file alone (the very
// same file: a rewrite with equal bytes would still replace the inode).
func TestSegStoreOwnsNoGoroutineAndNoClock(t *testing.T) {
	baseline := runtime.NumGoroutine()
	noGoroutine := func(when string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("%s: %d goroutines, %d before the store existed", when, n, baseline)
		}
	}
	dir := t.TempDir()
	// rewritten reports whether checkpoint.json changed since the last call.
	var lastInfo os.FileInfo
	var lastRaw []byte
	rewritten := func() bool {
		t.Helper()
		path := filepath.Join(dir, checkpointName)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		changed := !os.SameFile(lastInfo, fi) || !bytes.Equal(lastRaw, raw)
		lastInfo, lastRaw = fi, raw
		return changed
	}

	st, err := OpenSegStore(dir, SegStoreOptions{SegmentSize: 4 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	noGoroutine("after open")
	if !rewritten() {
		t.Fatal("open wrote no checkpoint")
	}

	batches := storeBatches(3, 64, 8)
	sealed := func() int { return len(st.Segments()) - 1 }
	next := 0
	for ; next < 4; next++ {
		if err := st.Append(batches[next]); err != nil {
			t.Fatal(err)
		}
	}
	if sealed() != 0 {
		t.Fatalf("4 small appends sealed %d segments; the test needs them inside one", sealed())
	}
	if rewritten() {
		t.Fatal("appends inside one segment rewrote the checkpoint")
	}
	for ; sealed() == 0; next++ {
		if err := st.Append(batches[next]); err != nil {
			t.Fatal(err)
		}
	}
	if !rewritten() {
		t.Fatal("a seal did not rewrite the checkpoint")
	}
	if err := st.seedMarks(map[uint64]uint64{3: 1, 8: 2}); err != nil {
		t.Fatal(err)
	}
	if !rewritten() {
		t.Fatal("a seed did not rewrite the checkpoint")
	}
	if err := st.seedMarks(map[uint64]uint64{3: 1, 8: 2}); err != nil {
		t.Fatal(err)
	}
	if rewritten() {
		t.Fatal("a seed that raised no mark rewrote the checkpoint")
	}
	noGoroutine("after appends")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !rewritten() {
		t.Fatal("Close did not rewrite the checkpoint")
	}
	noGoroutine("after Close")

	st, err = OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := st.Marks(); m[3] != uint64(next) || m[8] != 2 {
		t.Fatalf("reopened marks = %v, want device 3 at %d (frames) and device 8 at 2 (seeded)", m, next)
	}
	noGoroutine("after reopen")
	st.Kill()
	noGoroutine("after Kill")
}
