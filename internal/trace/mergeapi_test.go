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
	"sync"
	"testing"
)

// mergeAPIFixture builds two stores with disjoint devices, each sealing
// a segment, and a merged API over both.
func mergeAPIFixture(t *testing.T) (map[string]*SegStore, *httptest.Server) {
	t.Helper()
	stores := map[string]*SegStore{}
	for name, dev := range map[string]uint64{"col-0": 3, "col-1": 8} {
		st, err := OpenSegStore(t.TempDir(), SegStoreOptions{SegmentSize: 512}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		for _, b := range storeBatches(dev, 6, 8) {
			if err := st.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		stores[name] = st
	}
	api := NewMergeAPI(func() []StoreSource {
		return []StoreSource{
			{Name: "col-0", Store: stores["col-0"]},
			{Name: "col-1", Store: stores["col-1"]},
		}
	})
	mux := http.NewServeMux()
	api.Routes(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return stores, srv
}

// TestMergeAPIIndex: the merged index is the concatenation of every
// source's index, each entry naming its collector.
func TestMergeAPIIndex(t *testing.T) {
	stores, srv := mergeAPIFixture(t)
	code, body := storeAPIGet(t, srv, "/api/segments")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var got []MergedSegmentInfo
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	perCollector := map[string]int{}
	for _, info := range got {
		perCollector[info.Collector]++
	}
	for name, st := range stores {
		if want := len(st.Segments()); perCollector[name] != want {
			t.Fatalf("merged index has %d segments for %s, store has %d", perCollector[name], name, want)
		}
	}
}

// TestMergeAPIEventsAndData: per-segment endpoints route by collector
// name, reuse the single-store decode (truncated marker included), and
// the raw data round-trips through the wire reader.
func TestMergeAPIEventsAndData(t *testing.T) {
	stores, srv := mergeAPIFixture(t)
	id := stores["col-1"].Segments()[0].ID

	code, body := storeAPIGet(t, srv, fmt.Sprintf("/api/segments/events?collector=col-1&id=%d&limit=5", id))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var resp SegmentEventsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 5 || !resp.Truncated {
		t.Fatalf("limit=5: %d rows truncated=%v", len(resp.Rows), resp.Truncated)
	}
	for _, r := range resp.Rows {
		if r.DeviceID != 8 {
			t.Fatalf("col-1 serves device 8 only, got a row for device %d", r.DeviceID)
		}
	}

	code, body = storeAPIGet(t, srv, fmt.Sprintf("/api/segments/data?collector=col-1&id=%d", id))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	got := NewDataset()
	br := bufio.NewReader(bytes.NewReader(body))
	for {
		if _, err := br.Peek(1); err == io.EOF {
			break
		}
		b, _, _, err := ReadBatchAny(br)
		if err != nil {
			t.Fatal(err)
		}
		got.Publish(b.Events)
	}
	want := NewDataset()
	if err := stores["col-1"].ReadSegment(id, func(b *Batch) error {
		want.Publish(slices.Clone(b.Events))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got.MultisetDigest() != want.MultisetDigest() {
		t.Fatal("merged data download does not round-trip the segment")
	}

	for _, tc := range []struct {
		path string
		code int
	}{
		{fmt.Sprintf("/api/segments/events?id=%d", id), http.StatusBadRequest},
		{fmt.Sprintf("/api/segments/events?collector=ghost&id=%d", id), http.StatusNotFound},
		{"/api/segments/events?collector=col-1", http.StatusBadRequest},
		{fmt.Sprintf("/api/segments/data?collector=ghost&id=%d", id), http.StatusNotFound},
	} {
		if code, _ := storeAPIGet(t, srv, tc.path); code != tc.code {
			t.Errorf("GET %s = %d, want %d", tc.path, code, tc.code)
		}
	}
}

// TestMergeAPISingleSource: with exactly one source the collector
// parameter is optional, a named source still tags its index entries, and
// naming a collector that is not there stays a 404.
func TestMergeAPISingleSource(t *testing.T) {
	st, single := storeAPIFixture(t)
	mux := http.NewServeMux()
	NewMergeAPI(func() []StoreSource { return []StoreSource{{Name: "col-0", Store: st}} }).Routes(mux)
	named := httptest.NewServer(mux)
	defer named.Close()

	id := st.Segments()[0].ID
	for _, path := range []string{
		fmt.Sprintf("/api/segments/events?id=%d&limit=5", id),
		fmt.Sprintf("/api/segments/data?id=%d", id),
	} {
		_, want := storeAPIGet(t, single, path)
		for _, q := range []string{"", "&collector=col-0"} {
			code, got := storeAPIGet(t, named, path+q)
			if code != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("GET %s%s = %d, %d bytes; the single-store API serves %d bytes", path, q, code, len(got), len(want))
			}
		}
	}
	var idx []MergedSegmentInfo
	_, body := storeAPIGet(t, named, "/api/segments")
	if err := json.Unmarshal(body, &idx); err != nil || len(idx) == 0 || idx[0].Collector != "col-0" {
		t.Fatalf("named single source: index %s (err %v) does not tag col-0", body, err)
	}
	for srv, name := range map[*httptest.Server]string{single: "unnamed", named: "named"} {
		if code, _ := storeAPIGet(t, srv, fmt.Sprintf("/api/segments/data?collector=ghost&id=%d", id)); code != http.StatusNotFound {
			t.Errorf("%s source: collector=ghost = %d, want 404", name, code)
		}
	}
}

// TestMergeAPIIndexSharedSources: a sources callback that returns one
// shared slice is safe for concurrent calls, so concurrent index requests
// must not reorder it in place (run under -race).
func TestMergeAPIIndexSharedSources(t *testing.T) {
	stores, _ := mergeAPIFixture(t)
	shared := []StoreSource{
		{Name: "col-1", Store: stores["col-1"]},
		{Name: "col-0", Store: stores["col-0"]},
	}
	mux := http.NewServeMux()
	NewMergeAPI(func() []StoreSource { return shared }).Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	_, want := storeAPIGet(t, srv, "/api/segments")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(srv.URL + "/api/segments")
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("concurrent index differs (err %v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if shared[0].Name != "col-1" {
		t.Fatal("the index handler reordered the caller's slice")
	}
}
