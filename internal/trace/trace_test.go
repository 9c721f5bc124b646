package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

func sampleEvents(n int) []failure.Event {
	events := make([]failure.Event, n)
	for i := range events {
		events[i] = failure.Event{
			Kind:           failure.Kind(i % 3),
			DeviceID:       uint64(i),
			ModelID:        uint16(i % 34),
			AndroidVersion: uint8(9 + i%2),
			ISP:            simnet.ISPID(i % 3),
			RAT:            telephony.RAT4G,
			Level:          telephony.SignalLevel(i % 6),
			Cause:          telephony.CauseSignalLost,
			Start:          time.Duration(i) * time.Minute,
			Duration:       time.Duration(10+i) * time.Second,
		}
	}
	if n > 1 {
		events[1].HasTransition = true
		events[1].Transition = failure.TransitionInfo{
			FromRAT: telephony.RAT4G, ToRAT: telephony.RAT5G,
			FromLevel: telephony.Level4, ToLevel: telephony.Level0,
		}
	}
	return events
}

func TestCompressionActuallyShrinks(t *testing.T) {
	events := sampleEvents(1000)
	frame, err := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 1, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	// A failure.Event is 72 bytes in memory; the v3 frame should get far
	// below that per event for repetitive fleet data.
	perEvent := len(frame) / len(events)
	if perEvent > 64 {
		t.Errorf("compressed size %d bytes/event, want <= 64 (monthly budget depends on it)", perEvent)
	}
}

func TestDatasetAppendAndQuery(t *testing.T) {
	ds := NewDataset()
	ds.Publish(sampleEvents(5))
	ds.Publish(sampleEvents(3))
	if ds.Len() != 8 {
		t.Fatalf("Len = %d, want 8", ds.Len())
	}
	count := 0
	ds.Each(func(e *failure.Event) {
		if e == nil {
			t.Fatal("nil event")
		}
		count++
	})
	if count != 8 {
		t.Errorf("Each visited %d, want 8", count)
	}
	evs := ds.Events()
	if want := append(sampleEvents(5), sampleEvents(3)...); !slices.Equal(evs, want) {
		t.Error("Each order is not publish order")
	}
	evs[0].DeviceID = 999999
	if ds.Events()[0].DeviceID == 999999 {
		t.Error("Events() must return a copy")
	}

	// FromEvents copies its input and keeps its order.
	events := sampleEvents(97)
	flat := FromEvents(events)
	if !slices.Equal(flat.Events(), events) {
		t.Error("FromEvents changed Each order")
	}
	events[0].DeviceID = 999999
	if flat.Events()[0].DeviceID == 999999 {
		t.Error("FromEvents aliased its input")
	}
}

func TestCollectorAndUploaderEndToEnd(t *testing.T) {
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	up := NewUploader(col.Addr(), 7)
	for _, e := range sampleEvents(20) {
		up.Record(e)
	}
	if up.Pending() != 20 {
		t.Fatalf("pending = %d, want 20 (no WiFi yet)", up.Pending())
	}
	if err := up.Flush(); err == nil {
		t.Fatal("Flush without WiFi should fail")
	}
	up.SetWiFi(true) // triggers flush
	waitFor(t, func() bool { return up.Pending() == 0 })
	waitFor(t, func() bool { return ds.Len() == 20 })
	if up.SentBytes() == 0 {
		t.Error("SentBytes not accounted")
	}
	batches, _ := col.Stats()
	if batches != 1 {
		t.Errorf("collector batches = %d, want 1", batches)
	}

	// Records on WiFi wait for the caller's Flush: Record never sends.
	up.Record(sampleEvents(1)[0])
	if up.Pending() != 1 || ds.Len() != 20 {
		t.Fatalf("Record sent: pending = %d, dataset = %d", up.Pending(), ds.Len())
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ds.Len() == 21 })

	// Losing WiFi buffers again.
	up.SetWiFi(false)
	up.Record(sampleEvents(1)[0])
	if up.Pending() != 1 {
		t.Errorf("pending = %d after record without WiFi", up.Pending())
	}
}

func TestUploaderFlushEmptyIsNil(t *testing.T) {
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	up := NewUploader(col.Addr(), 1)
	up.SetWiFi(true)
	if err := up.Flush(); err != nil {
		t.Errorf("empty flush error: %v", err)
	}
}

// TestUploaderDialFailureKeepsEvents: a failed flush keeps its events and
// arms the jittered backoff timer, and an explicit Flush still attempts
// while it runs.
func TestUploaderDialFailureKeepsEvents(t *testing.T) {
	up := NewUploader("127.0.0.1:1", 1) // nothing listens on port 1
	up.SetBackoff(time.Second, 4*time.Second, rng.SplitIndexed(1, "jitter", 5))
	up.SetWiFi(true)
	up.Record(sampleEvents(1)[0])
	if err := up.Flush(); err == nil {
		t.Error("flush to dead collector should error")
	}
	if up.Pending() != 1 {
		t.Errorf("events lost on dial failure: pending = %d", up.Pending())
	}
	if up.ConsecutiveFailures() != 1 || up.LastErr() == nil {
		t.Fatalf("failure not recorded: %d, %v", up.ConsecutiveFailures(), up.LastErr())
	}
	if d := up.RetryDelay(); d < 400*time.Millisecond || d > time.Second {
		t.Errorf("RetryDelay = %v, want within jittered [500ms, 1s)", d)
	}
	if err := up.Flush(); err == nil {
		t.Error("explicit Flush must attempt (and here fail) despite backoff")
	}
	if up.ConsecutiveFailures() != 2 {
		t.Errorf("explicit flush failure not counted: %d", up.ConsecutiveFailures())
	}
}

func TestCollectorMultipleConnections(t *testing.T) {
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	const uploaders = 8
	done := make(chan error, uploaders)
	for i := 0; i < uploaders; i++ {
		go func(id int) {
			up := NewUploader(col.Addr(), uint64(id))
			up.SetWiFi(true)
			for _, e := range sampleEvents(25) {
				up.Record(e)
			}
			done <- up.Flush()
		}(i)
	}
	for i := 0; i < uploaders; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return ds.Len() == uploaders*25 })
}

func TestNewCollectorNilDataset(t *testing.T) {
	if _, err := NewCollectorWith("127.0.0.1:0", nil, CollectorOptions{}); err == nil {
		t.Error("nil dataset accepted")
	}
}

// TestNewCollectorNeedsAStore: the store owns the dedup marks, so a
// collector without one is refused — before it binds its address, which a
// second call with a store then takes.
func TestNewCollectorNeedsAStore(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if col, err := NewCollectorWith(addr, NewDataset(), CollectorOptions{}); err == nil {
		col.Close()
		t.Fatal("a collector without a store started")
	}
	col, err := NewCollectorWith(addr, NewDataset(), CollectorOptions{Store: testStore(t)})
	if err != nil {
		t.Fatalf("the refused collector left %s bound: %v", addr, err)
	}
	col.Close()
}

// testStore opens a segment store in a fresh temporary directory, closed
// when the test ends.
func testStore(t *testing.T) *SegStore {
	t.Helper()
	st, err := OpenSegStore(t.TempDir(), SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

func TestWriteCSV(t *testing.T) {
	ds := NewDataset()
	ds.Publish(sampleEvents(10))
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	ds.Each(w.Write)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 11 {
		t.Fatalf("lines = %d, want header + 10", len(lines))
	}
	if !strings.HasPrefix(lines[0], "device_id,model_id") {
		t.Errorf("header = %q", lines[0])
	}
	// The transition event carries its columns.
	found := false
	for _, l := range lines[1:] {
		if strings.Contains(l, "4G,4,5G,0") {
			found = true
		}
	}
	if !found {
		t.Error("transition columns missing")
	}
	// Parse back with the csv reader for structural validity.
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if len(r) != 21 {
			t.Fatalf("row %d has %d columns", i, len(r))
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	ds := NewDataset()
	ds.Publish(sampleEvents(5))
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	ds.Each(w.Write)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d", len(lines))
	}
	for i, l := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(l), &obj); err != nil {
			t.Fatalf("line %d invalid JSON: %v", i, err)
		}
		if _, ok := obj["device_id"]; !ok {
			t.Fatalf("line %d missing device_id", i)
		}
	}
	if !strings.Contains(buf.String(), `"transition"`) {
		t.Error("transition object missing from JSONL")
	}
}
