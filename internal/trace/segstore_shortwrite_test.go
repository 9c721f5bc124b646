//go:build linux

package trace

import (
	"bytes"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestStoreShortWriteRollsBackAndDropsUnacked makes the store's write of
// a received frame fail halfway — the process file-size limit is lowered
// to the middle of the frame, so the kernel writes the first half and
// refuses the rest (Go ignores the accompanying SIGXFSZ). The segment
// must roll back to the last frame boundary, the connection must be
// dropped without an ack, nothing may reach the dataset, and the retry,
// once the disk has room again, is admitted as fresh. No test in this
// package runs in parallel, so the limit touches no other file.
func TestStoreShortWriteRollsBackAndDropsUnacked(t *testing.T) {
	first, err := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 1, Events: sampleEvents(50)})
	if err != nil {
		t.Fatal(err)
	}
	second, err := AppendBatchV3(nil, &Batch{DeviceID: 1, Seq: 2, Events: sampleEvents(300)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := OpenSegStore(dir, SegStoreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds := NewDataset()
	col, err := NewCollectorWith("127.0.0.1:0", ds, CollectorOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if kind, _ := sendFrame(t, conn, first); kind != batchAck {
		t.Fatalf("first frame: reply kind 0x%02x, want ack", kind)
	}

	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("no file-size limit to lower: %v", err)
	}
	limited := old
	limited.Cur = uint64(len(first) + len(second)/2)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limited); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	dropped := mColDropped.Value()
	_, werr := conn.Write(second)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, rerr := conn.Read(make([]byte, replyLen))
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatalf("restore the file-size limit: %v", err)
	}
	if werr != nil {
		t.Fatal(werr)
	}
	if n != 0 || rerr != io.EOF {
		t.Fatalf("collector replied %d bytes (err %v) to a frame it could not store, want a bare close", n, rerr)
	}
	waitFor(t, func() bool { return mColDropped.Value() > dropped })
	if got := segmentFileBytes(t, dir); !bytes.Equal(got, first) {
		t.Fatalf("segment holds %d bytes after the failed append, want the first frame's %d", len(got), len(first))
	}
	if ds.Len() != 50 || st.Marks()[1] != 1 {
		t.Fatalf("dataset %d events, mark %d: the failed frame left a trace", ds.Len(), st.Marks()[1])
	}

	retry, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer retry.Close()
	if kind, seq := sendFrame(t, retry, second); kind != batchAck || seq != 2 {
		t.Fatalf("retry: reply kind 0x%02x seq %d, want ack of seq 2", kind, seq)
	}
	if col.DedupHits() != 0 {
		t.Fatal("the retry of an unstored frame was deduped instead of stored")
	}
	if got := segmentFileBytes(t, dir); !bytes.Equal(got, append(first, second...)) {
		t.Fatalf("segment holds %d bytes after the retry, want both frames' %d", len(got), len(first)+len(second))
	}
}
