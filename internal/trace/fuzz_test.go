package trace

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/failure"
)

// FuzzWireV3RoundTrip hardens the v3 decoder two ways at once: arbitrary
// bytes must never panic or over-allocate, and any input that *does*
// decode must re-encode/decode to the identical batch. The seeds include
// the retired v1/v2 framings (a uint32 length prefix, a 0xA2 tag), which
// are malformed input now.
func FuzzWireV3RoundTrip(f *testing.F) {
	seed1, _ := AppendBatchV3(nil, &Batch{DeviceID: 3, Seq: 1, Events: sampleEvents(3)})
	seed2, _ := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 9, Events: sampleEvents(400)}) // gzip'd
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
	f.Fuzz(func(t *testing.T, data []byte) {
		b, _, _, err := ReadBatchAny(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
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
	f.Add(gzipSmallFrame(f, golden))
	f.Add(nonCanonicalFrame())
	f.Add(phoneFrame(f))
	f.Add(manyTablesFrame(f)) // intern tables past the decoder's stack arrays
	f.Add([]byte{0, 0, 0, 4, 0x1f, 0x8b, 8, 0})
	f.Add([]byte{0xA2, 0, 0, 0, 4, 0x1f, 0x8b, 8, 0})
	for _, r := range outOfRangeFrames() {
		f.Add(r.frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		b, raw, err := ReadFrameRaw(br, nil)
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
func FuzzSegmentReplay(f *testing.F) {
	var valid []byte
	for _, b := range storeBatches(3, 3, 2) {
		valid, _ = AppendBatchV3(valid, b)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{0xA2, 0, 0, 0, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segFileName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func(opt SegStoreOptions) (*SegStore, []failure.Event) {
			var events []failure.Event
			st, err := OpenSegStore(dir, opt, func(b *Batch) { events = append(events, b.Events...) })
			if err != nil {
				t.Fatalf("open %+v: %v", opt, err)
			}
			return st, events
		}

		ro, want := open(SegStoreOptions{ReadOnly: true})
		whole := ro.Segments()[0].Bytes
		if whole+ro.TruncatedBytes() != int64(len(data)) {
			t.Fatalf("%d whole + %d torn bytes of a %d-byte file", whole, ro.TruncatedBytes(), len(data))
		}
		ro.Close()
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("read-only open changed the file (err %v)", err)
		}

		for _, pass := range []string{"read-write", "reopened"} {
			st, got := open(SegStoreOptions{})
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
