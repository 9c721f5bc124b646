package trace

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/failure"
)

// FuzzWireV3RoundTrip hardens the v3 codec three ways at once: arbitrary
// bytes must never panic or over-allocate, any input that *does* decode
// must re-encode/decode to the identical batch, and an uploader that
// records the batch's events one at a time — split into two batches —
// seals each to exactly the frame AppendBatchV3 writes for it, which
// round-trips through ReadFrameRaw. The seeds include
// the retired v1/v2 framings (a uint32 length prefix, a 0xA2 tag), which
// are malformed input now.
func FuzzWireV3RoundTrip(f *testing.F) {
	seed1, _ := AppendBatchV3(nil, &Batch{DeviceID: 3, Seq: 1, Events: sampleEvents(3)})
	seed2, _ := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 9, Events: sampleEvents(400)})
	seed3, _ := AppendBatchV3(nil, &Batch{DeviceID: 0, Seq: 0})
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add([]byte{versionV3})
	f.Add([]byte{versionV3, 0x01, 0, 0, 0, 2, 0x1f, 0x8b})
	f.Add([]byte{versionV3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 4, 0x1f, 0x8b, 8, 0})
	f.Add([]byte{0xA2, 0, 0, 0, 4, 0x1f, 0x8b, 8, 0})
	for _, r := range outOfRangeFrames() {
		f.Add(r.frame)
	}
	for _, frame := range layoutFrames(f) {
		f.Add(frame)
	}
	// The dirty-tail table's frames, but its 2000-event one, whose mutants
	// would cost the fuzzer more than they find.
	blocks := blockFrames(f)
	names := make([]string, 0, len(blocks))
	for name := range blocks {
		if name != "large" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(blocks[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, _, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		// Decoded into a tail another frame left dirty, as a collector
		// connection decodes, it is the same batch.
		dirty := Batch{Events: dirtyTail(len(b.Events) + 1)}
		if _, err := ReadFrameRaw(bufio.NewReader(bytes.NewReader(data)), nil, &dirty); err != nil || !reflect.DeepEqual(&dirty, b) {
			t.Fatalf("decoded into a dirty tail: %v\n got %+v\nwant %+v", err, dirty, b)
		}
		frame, err := AppendBatchV3(nil, b)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		again, _, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("v3 re-encode not stable:\n was %+v\n now %+v", b, again)
		}
		if len(b.Events) == 0 {
			return // an uploader never seals an empty batch
		}
		up := NewUploader("", b.DeviceID)
		up.nextSeq = b.Seq - 1 // the first seal carries b.Seq
		half := len(b.Events) / 2
		for i, events := range [][]failure.Event{b.Events[:half], b.Events[half:]} {
			if len(events) == 0 {
				continue
			}
			for _, e := range events {
				up.Record(e)
			}
			sealed := sealPending(t, up)
			seq := up.nextSeq
			want, err := AppendBatchV3(nil, &Batch{DeviceID: b.DeviceID, Seq: seq, Events: events})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sealed, want) {
				t.Fatalf("half %d: the uploader sealed %d B, AppendBatchV3 writes %d B", i, len(sealed), len(want))
			}
			if got := decodeFrame(t, sealed); got.DeviceID != b.DeviceID || got.Seq != seq || !reflect.DeepEqual(got.Events, events) {
				t.Fatalf("half %d: the sealed frame does not round-trip", i)
			}
		}
	})
}

// FuzzReadFrameRaw: for any input the raw frame reader either errors or
// returns exactly the bytes it consumed, and those bytes decode — through
// the ordinary reader, as a store replay would — to the batch it returned.
// The batch must not alias the raw bytes, which the caller reuses.
func FuzzReadFrameRaw(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "v3_gnarly.frame"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(append(append([]byte(nil), golden...), golden...)) // a second frame follows
	f.Add(gzippedFrame(f, golden))
	f.Add(nonCanonicalFrame())
	f.Add(phoneFrame(f))
	f.Add(manyTablesFrame(f)) // a cell table past the decoder's stack array
	f.Add([]byte{0, 0, 0, 4, 0x1f, 0x8b, 8, 0})
	f.Add([]byte{0xA2, 0, 0, 0, 4, 0x1f, 0x8b, 8, 0})
	for _, r := range outOfRangeFrames() {
		f.Add(r.frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		b := new(Batch)
		raw, err := ReadFrameRaw(br, nil, b)
		if err != nil {
			return
		}
		consumed := len(data) - src.Len() - br.Buffered()
		if len(raw) != consumed || !bytes.Equal(raw, data[:consumed]) {
			t.Fatalf("raw is %d bytes, the reader consumed %d; or they differ", len(raw), consumed)
		}
		again, n, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(raw)))
		if err != nil || n != len(raw) {
			t.Fatalf("raw bytes do not decode whole: %d of %d, err %v", n, len(raw), err)
		}
		for i := range raw {
			raw[i] = 0xFF
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("raw bytes decode to a different batch:\n was %+v\n now %+v", b, again)
		}
	})
}

// FuzzSegmentReplay: arbitrary bytes as a store's unsealed tail segment.
// A read-only open terminates and leaves the file as it found it; a
// read-write open replays the same frames and cuts the file back to that
// frame boundary; one more open replays the same events from the cut file.
// The one exception is an older build's frame at a frame boundary, a tag
// from 0xA3 to 0xA5 or a flags byte other than 0: no torn write begins
// like one, so both opens fail and the file stays as it was.
func FuzzSegmentReplay(f *testing.F) {
	var valid []byte
	for _, b := range storeBatches(3, 3, 2) {
		valid, _ = AppendBatchV3(valid, b)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{0xA2, 0, 0, 0, 1, 9})
	f.Add(append(valid, versionV3, 0x01, 0, 0, 0, 1, 0))
	older, _ := AppendBatchV3(nil, storeBatches(4, 1, 2)[0])
	for _, tag := range olderTags() {
		f.Add(append(valid, olderFrame(older, tag)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segFileName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func(opt SegStoreOptions) (*SegStore, []failure.Event, error) {
			var events []failure.Event
			st, err := OpenSegStore(dir, opt, func(b *Batch) { events = append(events, b.Events...) })
			return st, events, err
		}

		ro, want, err := open(SegStoreOptions{ReadOnly: true})
		if err != nil {
			if _, _, rwErr := open(SegStoreOptions{}); !errors.Is(err, errV3Older) || !errors.Is(rwErr, errV3Older) {
				t.Fatalf("open failed: read-only %v, read-write %v", err, rwErr)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
				t.Fatalf("a refused open changed the file (err %v)", err)
			}
			return
		}
		whole := ro.Segments()[0].Bytes
		if torn := data[whole:]; len(torn) > 0 && torn[0] >= versionV3First && torn[0] < versionV3 || len(torn) > 1 && torn[0] == versionV3 && torn[1] != 0 {
			t.Fatalf("the older encoder's frame at offset %d was cut as a torn write", whole)
		}
		if whole+ro.truncatedBytes() != int64(len(data)) {
			t.Fatalf("%d whole + %d torn bytes of a %d-byte file", whole, ro.truncatedBytes(), len(data))
		}
		ro.Close()
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("read-only open changed the file (err %v)", err)
		}

		for _, pass := range []string{"read-write", "reopened"} {
			st, got, err := open(SegStoreOptions{})
			if err != nil {
				t.Fatalf("%s open: %v", pass, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s open replayed %d events, read-only open %d", pass, len(got), len(want))
			}
			if cut, err := os.ReadFile(path); err != nil || !bytes.Equal(cut, data[:whole]) {
				t.Fatalf("%s open did not leave the %d bytes up to the frame boundary (err %v)", pass, whole, err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
