package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// storeAPIFixture builds a store with several sealed segments plus an
// active tail, and an httptest server over its API.
func storeAPIFixture(t *testing.T) (*SegStore, *httptest.Server) {
	t.Helper()
	st, err := OpenSegStore(t.TempDir(), SegStoreOptions{SegmentSize: 1024}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, dev := range []uint64{3, 8} {
		for _, b := range storeBatches(dev, 6, 8) {
			if err := st.Append(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	mux := http.NewServeMux()
	NewStoreAPI(st).Routes(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return st, srv
}

func storeAPIGet(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestStoreAPIIndex checks /api/segments against the in-process index.
func TestStoreAPIIndex(t *testing.T) {
	st, srv := storeAPIFixture(t)
	code, body := storeAPIGet(t, srv, "/api/segments")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var got []SegmentInfo
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want := st.Segments()
	// A single store's index is the bare SegmentInfo list, byte for byte:
	// the unnamed source adds no collector key.
	var bare bytes.Buffer
	if err := json.NewEncoder(&bare).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, bare.Bytes()) {
		t.Fatalf("index bytes differ from the encoded SegmentInfo list:\n%s\n%s", body, bare.Bytes())
	}
	if len(got) != len(want) || len(got) < 2 {
		t.Fatalf("index has %d segments over HTTP, %d in process", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Sealed != want[i].Sealed ||
			got[i].Frames != want[i].Frames || got[i].Events != want[i].Events {
			t.Errorf("segment %d: HTTP %+v != process %+v", i, got[i], want[i])
		}
	}
}

// TestStoreAPIDataRoundTrip downloads a sealed segment's raw frames and
// decodes them with the collector's own reader: the batches must match
// what ReadSegment yields.
func TestStoreAPIDataRoundTrip(t *testing.T) {
	st, srv := storeAPIFixture(t)
	infos := st.Segments()
	id := infos[0].ID
	code, body := storeAPIGet(t, srv, fmt.Sprintf("/api/segments/data?id=%d", id))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	got := NewDataset()
	br := bufio.NewReader(bytes.NewReader(body))
	frames := 0
	for {
		if _, err := br.Peek(1); err == io.EOF {
			break
		}
		b, _, _, err := ReadBatchAny(br)
		if err != nil {
			t.Fatal(err)
		}
		got.Publish(b.Events)
		frames++
	}
	want := NewDataset()
	if err := st.ReadSegment(id, func(b *Batch) error {
		want.Publish(slices.Clone(b.Events))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if frames != infos[0].Frames || got.MultisetDigest() != want.MultisetDigest() {
		t.Fatalf("downloaded %d frames digest %s, want %d frames digest %s",
			frames, got.MultisetDigest(), infos[0].Frames, want.MultisetDigest())
	}
}

// TestStoreAPIEventsFiltering exercises the decoded-row endpoint: device
// filtering, the row limit, and the truncated marker that tells a full
// page from an exhausted segment.
func TestStoreAPIEventsFiltering(t *testing.T) {
	st, srv := storeAPIFixture(t)
	info := st.Segments()[0]
	id := info.ID

	code, body := storeAPIGet(t, srv, fmt.Sprintf("/api/segments/events?id=%d&device=3", id))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var resp SegmentEventsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) == 0 {
		t.Fatal("device filter returned no rows")
	}
	for _, r := range resp.Rows {
		if r.DeviceID != 3 {
			t.Fatalf("row for device %d leaked through the device=3 filter", r.DeviceID)
		}
		if r.Kind == "" {
			t.Fatal("row missing decoded kind")
		}
	}

	code, body = storeAPIGet(t, srv, fmt.Sprintf("/api/segments/events?id=%d&limit=5", id))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	resp = SegmentEventsResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 5 {
		t.Fatalf("limit=5 returned %d rows", len(resp.Rows))
	}
	if !resp.Truncated {
		t.Fatal("limit=5 cut the segment short but truncated=false")
	}

	// A limit covering the whole segment must not report truncation even
	// when the page comes back exactly full.
	code, body = storeAPIGet(t, srv, fmt.Sprintf("/api/segments/events?id=%d&limit=%d", id, info.Events))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	resp = SegmentEventsResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != info.Events {
		t.Fatalf("limit=%d returned %d rows, want the whole segment", info.Events, len(resp.Rows))
	}
	if resp.Truncated {
		t.Fatal("an exactly-full final page reported truncated=true")
	}
}

// TestStoreAPIUnsealedAndBadRequests pins the error envelope: the active
// segment is not servable, unknown ids are 404s, and junk parameters are
// 400s.
func TestStoreAPIUnsealedAndBadRequests(t *testing.T) {
	st, srv := storeAPIFixture(t)
	infos := st.Segments()
	active := infos[len(infos)-1]
	if active.Sealed {
		t.Fatal("fixture tail unexpectedly sealed")
	}
	for _, tc := range []struct {
		path string
		code int
	}{
		{fmt.Sprintf("/api/segments/data?id=%d", active.ID), http.StatusNotFound},
		{fmt.Sprintf("/api/segments/events?id=%d", active.ID), http.StatusNotFound},
		{"/api/segments/data?id=999", http.StatusNotFound},
		{"/api/segments/data", http.StatusBadRequest},
		{"/api/segments/data?id=zero", http.StatusBadRequest},
		{fmt.Sprintf("/api/segments/events?id=%d&limit=0", infos[0].ID), http.StatusBadRequest},
		{fmt.Sprintf("/api/segments/events?id=%d&device=x", infos[0].ID), http.StatusBadRequest},
	} {
		if code, _ := storeAPIGet(t, srv, tc.path); code != tc.code {
			t.Errorf("GET %s = %d, want %d", tc.path, code, tc.code)
		}
	}
}

// TestSegmentEventsJSONMatchesEncoder: the hand-written segment-events
// encoder writes json.NewEncoder's bytes for rows with strings that need
// escaping and floats at both ends of the exponent switch, and for an
// empty page.
func TestSegmentEventsJSONMatchesEncoder(t *testing.T) {
	strs := []string{
		"", "lte", `quote " and \ backslash`, "<script>&amp;</script>", "tab\tnew\nline\rcr\x00\x01\x1f\x7f",
		"line\u2028para\u2029", "bad utf8 \xff\xfe", "\u00e9\u4e2d\u6587\U0001F642",
	}
	floats := []float64{
		0, 1, -1, 0.1, 1.5, 3600, 1e-6, 9.99e-7, 1e-7, 5e-324, 1e20, 1e21, 1.7976931348623157e308,
		-2.5e-9, 123456789.123456789,
	}
	var rows []SegmentRow
	for i, f := range floats {
		rows = append(rows, SegmentRow{
			DeviceID: uint64(i) * 0x0123456789ABCDEF, Seq: uint64(i) << 40,
			Kind: strs[i%len(strs)], ISP: strs[(i+1)%len(strs)], RAT: strs[(i+2)%len(strs)],
			Level: i - 3, Cause: strs[(i+3)%len(strs)], Duration: f,
		})
	}
	for _, resp := range []SegmentEventsResponse{
		{Rows: rows, Truncated: true},
		{Rows: rows[:1]},
		{Rows: []SegmentRow{}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := resp.appendJSON(nil); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%d rows: got\n%s\nwant\n%s", len(resp.Rows), got, want.Bytes())
		}
	}
}

// TestSegmentEventsReadAllocs pins what one 256-row page of a sealed
// segment costs, the query a dashboard polls, for a segment of phone
// frames and one of bulk frames. The segment reader is recycled with its
// frame buffer and event slice, so a warm read allocates only the page,
// the open file and the reader's bound on it: a constant, whatever the
// frames' shape.
func TestSegmentEventsReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled readers at random")
	}
	for _, shape := range []struct {
		name          string
		frames, batch int
	}{{"phone", 32, 16}, {"bulk", 2, 512}} {
		st, err := OpenSegStore(t.TempDir(), SegStoreOptions{SegmentSize: 1 << 30}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for seq := 1; seq <= shape.frames; seq++ {
			if err := st.Append(&Batch{DeviceID: 5, Seq: uint64(seq), Events: richEvents(shape.batch, seq)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil { // seals the segment
			t.Fatal(err)
		}
		id := st.Segments()[0].ID
		read := func() {
			resp, err := segmentEvents(st, id, eventsQuery{limit: 256})
			if err != nil || len(resp.Rows) != 256 || !resp.Truncated {
				t.Fatalf("%s: read %d rows (truncated %v), err %v; want a full, truncated page", shape.name, len(resp.Rows), resp.Truncated, err)
			}
		}
		read()
		if got := testing.AllocsPerRun(20, read); got > 7 {
			t.Errorf("%s: a 256-row segment-events read allocates %v objects, want at most 7", shape.name, got)
		}
	}
}
