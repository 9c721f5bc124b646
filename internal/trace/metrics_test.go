package trace

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/metrics"
)

func metricVal(t *testing.T, name string) float64 {
	t.Helper()
	v, ok := metrics.Default().Value(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return v
}

// TestPipelineMetrics runs one upload round trip and checks the
// uploader and collector counters move together (deltas: the registry
// is process-wide).
func TestPipelineMetrics(t *testing.T) {
	upBatches0 := metricVal(t, "trace_uploader_batches_total")
	upEvents0 := metricVal(t, "trace_uploader_events_total")
	upBytes0 := metricVal(t, "trace_uploader_bytes_total")
	colBatches0 := metricVal(t, "trace_collector_batches_accepted_total")
	colEvents0 := metricVal(t, "trace_collector_events_decoded_total")

	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	up := NewUploader(col.Addr(), 42)
	up.SetWiFi(true)
	up.Record(failure.Event{Kind: failure.DataStall, Duration: 3 * time.Second})
	up.Record(failure.Event{Kind: failure.OutOfService, Duration: time.Second})
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}

	if d := metricVal(t, "trace_uploader_batches_total") - upBatches0; d < 1 {
		t.Errorf("uploader batches moved by %v, want >= 1", d)
	}
	if d := metricVal(t, "trace_uploader_events_total") - upEvents0; d != 2 {
		t.Errorf("uploader events moved by %v, want 2", d)
	}
	if d := metricVal(t, "trace_uploader_bytes_total") - upBytes0; d <= 0 {
		t.Errorf("uploader bytes moved by %v, want > 0", d)
	}
	if d := metricVal(t, "trace_collector_batches_accepted_total") - colBatches0; d < 1 {
		t.Errorf("collector batches moved by %v, want >= 1", d)
	}
	if d := metricVal(t, "trace_collector_events_decoded_total") - colEvents0; d != 2 {
		t.Errorf("collector events moved by %v, want 2", d)
	}
	if g := metricVal(t, "trace_dataset_events"); g != float64(ds.Len()) {
		t.Errorf("dataset gauge = %v, want %d", g, ds.Len())
	}
}

// TestUploaderFlushRetryMetrics checks failed flushes are counted (and
// stay pending for retry) when no collector is reachable.
func TestUploaderFlushRetryMetrics(t *testing.T) {
	// Reserve a port and close it so the dial reliably fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	retries0 := metricVal(t, "trace_uploader_flush_retries_total")
	up := NewUploader(addr, 7)
	up.SetWiFi(true)
	up.Record(failure.Event{Kind: failure.DataStall}) // triggers a failing flush
	if err := up.Flush(); err == nil {
		t.Fatal("Flush to closed port succeeded")
	}
	if up.FlushRetries() < 1 {
		t.Errorf("FlushRetries = %d, want >= 1", up.FlushRetries())
	}
	if d := metricVal(t, "trace_uploader_flush_retries_total") - retries0; d < 1 {
		t.Errorf("retry counter moved by %v, want >= 1", d)
	}
	if up.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (event kept for retry)", up.Pending())
	}
}

// TestRerouteAndTakeoverMetrics checks the failover counters:
// trace_uploader_reroutes_total moves on Retarget, and
// trace_collector_takeover_devices moves when seeded marks actually
// raise a device's high-water (not when they are stale).
func TestRerouteAndTakeoverMetrics(t *testing.T) {
	reroutes0 := metricVal(t, "trace_uploader_reroutes_total")
	up := NewUploader("127.0.0.1:1", 9)
	defer up.Close()
	if up.Retarget("") {
		t.Fatal("Retarget to empty address reported a change")
	}
	if up.Retarget("127.0.0.1:1") {
		t.Fatal("Retarget to the current address reported a change")
	}
	if !up.Retarget("127.0.0.1:2") {
		t.Fatal("Retarget to a new address reported no change")
	}
	if d := metricVal(t, "trace_uploader_reroutes_total") - reroutes0; d != 1 {
		t.Errorf("reroute counter moved by %v, want 1 (no-op retargets must not count)", d)
	}

	takeover0 := metricVal(t, "trace_collector_takeover_devices")
	st := testStore(t)
	if n, err := st.SeedMarks(map[uint64]uint64{3: 5, 4: 2}); n != 2 || err != nil {
		t.Fatalf("SeedMarks raised %d devices (err %v), want 2", n, err)
	}
	if n, err := st.SeedMarks(map[uint64]uint64{3: 4}); n != 0 || err != nil {
		t.Fatalf("stale SeedMarks raised %d devices (err %v), want 0", n, err)
	}
	if d := metricVal(t, "trace_collector_takeover_devices") - takeover0; d != 2 {
		t.Errorf("takeover counter moved by %v, want 2 (stale seeds must not count)", d)
	}
}

// TestCollectorDropMetrics checks a malformed stream bumps the dropped
// counter.
//
// ci/verify.sh's race stage runs it 20 times: it used to fail a few runs in
// a hundred (Close could beat acceptLoop to the dialed connection).
func TestCollectorDropMetrics(t *testing.T) {
	dropped0 := metricVal(t, "trace_collector_batches_dropped_total")
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte{0xff, 0xff, 0xff, 0xff}) // implausible length prefix
	// Wait for the collector to drop the connection before closing it: a
	// Close that wins the race with acceptLoop would shut the listener
	// before any serve goroutine saw the bad bytes.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("collector answered a malformed stream with %d bytes (err %v), want a bare close", n, err)
	}
	col.Close() // waits for the connection handler to finish
	if d := metricVal(t, "trace_collector_batches_dropped_total") - dropped0; d != 1 {
		t.Errorf("dropped counter moved by %v, want 1", d)
	}
}
