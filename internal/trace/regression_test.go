package trace

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
)

// TestUploaderConcurrentRecordDuringFlush hammers Record from several
// goroutines while Flush runs concurrently. Run under -race this catches
// the historical aliasing bug where Flush handed gob a view of the live
// pending array with the mutex released; the loss check catches any
// re-base that drops events recorded mid-flight.
func TestUploaderConcurrentRecordDuringFlush(t *testing.T) {
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	up := NewUploader(col.Addr(), 7)
	up.SetWiFi(true)

	const (
		writers      = 4
		perWriter    = 200
		totalRecords = writers * perWriter
	)
	events := sampleEvents(totalRecords)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				up.Record(events[w*perWriter+i])
			}
		}(w)
	}
	stop := make(chan struct{})
	var fwg sync.WaitGroup
	fwg.Add(1)
	go func() {
		defer fwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				up.Flush() // races against the writers on purpose
			}
		}
	}()
	wg.Wait()
	close(stop)
	fwg.Wait()

	// Drain whatever the racing flusher left behind.
	for up.Pending() > 0 {
		if err := up.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return ds.Len() == totalRecords })
	if got := ds.Len(); got != totalRecords {
		t.Fatalf("collector stored %d events, recorded %d", got, totalRecords)
	}
	// The flusher recycles acked buffers while the writers fill the next
	// one: any aliasing between the two shows as a changed multiset.
	var want Digest
	for i := range events {
		want.Add(EventDigest(&events[i]))
	}
	if got := ds.MultisetDigest(); got != want {
		t.Fatalf("stored multiset %s != recorded %s", got, want)
	}
}

// TestCollectorCloseWithIdleConnection dials a connection that never sends
// a batch and asserts Close still returns promptly. Before Close learned
// to force-close open connections, the serve goroutine parked in ReadBatch
// kept the WaitGroup waiting forever.
func TestCollectorCloseWithIdleConnection(t *testing.T) {
	col, err := NewCollectorWith("127.0.0.1:0", NewDataset(), CollectorOptions{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Give the accept loop a moment to hand the conn to a serve goroutine,
	// so Close actually has an in-flight idle connection to unblock.
	time.Sleep(50 * time.Millisecond)

	closed := make(chan error, 1)
	go func() { closed <- col.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Collector.Close hung on an idle connection")
	}
}

// TestDatasetConcurrentPublishEach publishes from several goroutines while
// a reader iterates; under -race this validates the snapshot discipline
// (published segments are immutable, Each never observes a torn publish).
//
// ci/verify.sh's race stage runs it ten times: one dataset mutex serves
// every ring member and the fleet publish.
func TestDatasetConcurrentPublishEach(t *testing.T) {
	ds := NewDataset()
	events := sampleEvents(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ds.Publish(sampleEvents(len(events)))
			}
		}()
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 20; i++ {
			n := 0
			ds.Each(func(e *failure.Event) { n++ })
			if n%len(events) != 0 {
				t.Errorf("Each observed a torn append: %d events", n)
				return
			}
		}
	}()
	wg.Wait()
	<-readerDone
	if got, want := ds.Len(), 8*50*len(events); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}
