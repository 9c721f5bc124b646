package ring

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/trace"
)

// Each member of a written fleet holds bootDevices devices, each with
// bootFrames frames of bootEvents events at Seq 1 … bootFrames. Member i's
// devices are i*100+1 … i*100+bootDevices, so a batch names its member.
const (
	bootDevices = 5
	bootFrames  = 20
	bootEvents  = 4
)

func bootMember(device uint64) int { return int(device / 100) }

// writeFleet writes n member stores under dir/col-N, in small segments so
// each member holds several sealed ones, and returns the events written
// and each member's marks.
func writeFleet(t *testing.T, dir string, n int) (events int, marks []map[uint64]uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		st, err := trace.OpenSegStore(filepath.Join(dir, fmt.Sprintf("col-%d", i)), trace.SegStoreOptions{SegmentSize: 2 << 10}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= bootFrames; seq++ {
			for d := uint64(1); d <= bootDevices; d++ {
				dev := uint64(i)*100 + d
				b := &trace.Batch{DeviceID: dev, Seq: seq, Events: make([]failure.Event, bootEvents)}
				for k := range b.Events {
					b.Events[k] = failure.Event{DeviceID: dev, Kind: failure.DataStall, Start: time.Duration(seq) * time.Hour, Duration: time.Duration(k+1) * time.Second}
				}
				if err := st.Append(b); err != nil {
					t.Fatal(err)
				}
				events += len(b.Events)
			}
		}
		marks = append(marks, st.Marks())
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return events, marks
}

// freeAddr returns a localhost address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestFleetBootReplaysMembersAtOnce: StartFleet replays its members'
// stores concurrently — member 0's first batch is held until member 1's
// has arrived, which a member-by-member boot never delivers — while each
// store still replays in its own append order. The collectors then listen
// in member order, member 0 on Listen.
//
// ci/verify.sh's race stage runs it 20 times: the members' replays
// interleave differently on every run.
func TestFleetBootReplaysMembersAtOnce(t *testing.T) {
	dir := t.TempDir()
	written, _ := writeFleet(t, dir, 3)

	ds := trace.NewDataset()
	var (
		mu       sync.Mutex
		lastSeq  = map[uint64]uint64{}
		held     atomic.Bool
		arrived  = make(chan struct{})
		arriveMu sync.Once
	)
	replay := func(b *trace.Batch) {
		switch bootMember(b.DeviceID) {
		case 1:
			arriveMu.Do(func() { close(arrived) })
		case 0:
			if held.CompareAndSwap(false, true) {
				select {
				case <-arrived:
				case <-time.After(5 * time.Second):
					t.Error("member 0's first batch waited 5 s for member 1's: the members replay one after another")
				}
			}
		}
		mu.Lock()
		if b.Seq <= lastSeq[b.DeviceID] {
			t.Errorf("device %d replayed Seq %d after %d, out of its store's append order", b.DeviceID, b.Seq, lastSeq[b.DeviceID])
		}
		lastSeq[b.DeviceID] = b.Seq
		mu.Unlock()
		ds.Publish(b.Events)
	}

	listen := freeAddr(t)
	fc, err := StartFleet(3, ds, FleetOptions{Seed: 7, Dir: dir, Listen: listen, Replay: replay})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if got := ds.Len(); got != written {
		t.Errorf("boot replayed %d events, the stores hold %d", got, written)
	}
	if len(lastSeq) != 3*bootDevices {
		t.Errorf("boot replayed %d devices, want %d", len(lastSeq), 3*bootDevices)
	}
	if got := fc.Addr(0); got != listen {
		t.Errorf("member 0 listens on %s, want %s", got, listen)
	}
	for i := 0; i < fc.Len(); i++ {
		name := fmt.Sprintf("col-%d", i)
		if got, ok := fc.Router().Addr(name); !ok || got != fc.Addr(i) {
			t.Errorf("router has %s at %q (%v), the member listens on %s", name, got, ok, fc.Addr(i))
		}
		if c, err := net.Dial("tcp", fc.Addr(i)); err != nil {
			t.Errorf("%s does not accept connections: %v", name, err)
		} else {
			c.Close()
		}
	}
}

// TestFleetBootFailsCleanlyOnACorruptMember: one member whose sealed
// segment is corrupt fails the whole boot with an error naming it, and
// leaves nothing listening and every other member's store closed with its
// marks intact.
//
// ci/verify.sh's race stage runs it 20 times: the members replay at once, so
// the others may be mid-replay when the corrupt one fails.
func TestFleetBootFailsCleanlyOnACorruptMember(t *testing.T) {
	dir := t.TempDir()
	_, marks := writeFleet(t, dir, 3)

	// Set the flags byte of the second frame of col-1's first segment to a
	// value no frame carries.
	seg := filepath.Join(dir, "col-1", "seg-000001.v3s")
	f, err := os.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := trace.ReadFrameRaw(bufio.NewReader(f), nil, new(trace.Batch))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= len(first)+1 {
		t.Fatalf("%s holds one frame, want several", seg)
	}
	raw[len(first)+1] = 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	listen := freeAddr(t)
	fc, err := StartFleet(3, trace.NewDataset(), FleetOptions{Seed: 7, Dir: dir, Listen: listen})
	if err == nil || fc != nil {
		if fc != nil {
			fc.Close()
		}
		t.Fatalf("StartFleet over a corrupt col-1 returned %v, %v; want a nil fleet and an error", fc, err)
	}
	if !strings.Contains(err.Error(), "col-1") || strings.Contains(err.Error(), "col-0") || strings.Contains(err.Error(), "col-2") {
		t.Errorf("boot error %q should name col-1 alone", err)
	}
	if ln, err := net.Listen("tcp", listen); err != nil {
		t.Errorf("member 0's address is taken after a failed boot: %v", err)
	} else {
		ln.Close()
	}
	for _, i := range []int{0, 2} {
		st, err := trace.OpenSegStore(filepath.Join(dir, fmt.Sprintf("col-%d", i)), trace.SegStoreOptions{}, nil)
		if err != nil {
			t.Fatalf("col-%d does not reopen after the failed boot: %v", i, err)
		}
		if got := st.Marks(); !reflect.DeepEqual(got, marks[i]) {
			t.Errorf("col-%d marks after the failed boot: %v, want %v", i, got, marks[i])
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
