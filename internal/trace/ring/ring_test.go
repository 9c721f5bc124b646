package ring

import (
	"runtime"
	"sync"
	"testing"
)

// assign computes the full DeviceID→member map for devices [0, k).
func assign(r *Ring, k uint64) map[uint64]string {
	out := make(map[uint64]string, k)
	for d := uint64(0); d < k; d++ {
		m, ok := r.Lookup(d)
		if !ok {
			return nil
		}
		out[d] = m
	}
	return out
}

// TestRingDeterministic: same seed + membership ⇒ identical assignment,
// regardless of member insertion order, GOMAXPROCS, or which goroutine
// asks. Placement must be a pure function of (seed, membership) or a
// fleet and its uploaders could not agree on ownership without a
// coordination service.
func TestRingDeterministic(t *testing.T) {
	const k = 2000
	a := New(7, 256)
	a.Add("col-0", "col-1", "col-2")
	want := assign(a, k)

	// Different insertion order, incremental adds.
	b := New(7, 256)
	b.Add("col-2")
	b.Add("col-1")
	b.Add("col-0")
	if got := assign(b, k); len(got) != k {
		t.Fatal("empty assignment")
	} else {
		for d, m := range want {
			if got[d] != m {
				t.Fatalf("device %d: insertion order changed owner %s -> %s", d, m, got[d])
			}
		}
	}

	// Same lookups under different GOMAXPROCS, from concurrent readers.
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		results := make([]map[uint64]string, 4)
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = assign(a, k)
			}(i)
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		for i, got := range results {
			for d, m := range want {
				if got[d] != m {
					t.Fatalf("GOMAXPROCS=%d reader %d: device %d owner %s, want %s", procs, i, d, got[d], m)
				}
			}
		}
	}

	// A fresh ring with a different seed must NOT reproduce the same
	// assignment (otherwise the seed is not actually feeding the hash).
	c := New(8, 256)
	c.Add("col-0", "col-1", "col-2")
	same := 0
	for d, m := range assign(c, k) {
		if want[d] == m {
			same++
		}
	}
	if same == k {
		t.Fatal("seed does not affect placement")
	}
}

// TestRingRebalanceBound: removing one member moves exactly that
// member's keys — every survivor-owned device keeps its owner — and,
// with the committed (seed, vnodes, K), the moved set stays within
// ceil(K/N) for every possible victim. The configuration is pinned
// deterministically (seed 294, 1024 vnodes, K=1000 splits 333/333/334),
// so this doubles as a balance regression test on the hash.
func TestRingRebalanceBound(t *testing.T) {
	const (
		seed   = 294
		vnodes = 1024
		k      = 1000
	)
	members := []string{"col-0", "col-1", "col-2"}
	ceil := (k + len(members) - 1) / len(members)

	base := New(seed, vnodes)
	base.Add(members...)
	before := assign(base, k)

	owned := map[string]int{}
	for _, m := range before {
		owned[m]++
	}
	for _, m := range members {
		if owned[m] > ceil {
			t.Fatalf("member %s owns %d keys, over ceil(K/N)=%d — pinned balance regressed", m, owned[m], ceil)
		}
	}

	for _, victim := range members {
		r := base.Clone()
		r.Remove(victim)
		after := assign(r, k)
		moved := 0
		for d, m := range before {
			switch {
			case m == victim:
				moved++
				if after[d] == victim {
					t.Fatalf("victim %s still owns device %d after removal", victim, d)
				}
			case after[d] != m:
				t.Fatalf("losing %s moved device %d from survivor %s to %s", victim, d, m, after[d])
			}
		}
		if moved != owned[victim] {
			t.Fatalf("losing %s moved %d keys, want exactly its %d", victim, moved, owned[victim])
		}
		if moved > ceil {
			t.Fatalf("losing %s moved %d keys > ceil(K/N)=%d", victim, moved, ceil)
		}
	}
}

func TestRingEdges(t *testing.T) {
	r := New(1, 8)
	if _, ok := r.Lookup(42); ok {
		t.Fatal("empty ring returned an owner")
	}
	r.Add("only")
	for d := uint64(0); d < 100; d++ {
		if m, ok := r.Lookup(d); !ok || m != "only" {
			t.Fatalf("single-member ring: device %d -> %q, %v", d, m, ok)
		}
	}
	r.Add("only") // idempotent
	if n := len(r.points); n != 8 {
		t.Fatalf("re-adding a member duplicated points: %d", n)
	}
	r.Remove("ghost") // unknown: no-op
	if r.Len() != 1 {
		t.Fatalf("Len = %d after removing unknown member", r.Len())
	}

	c := r.Clone()
	c.Remove("only")
	if _, ok := c.Lookup(1); ok {
		t.Fatal("clone still routes after removing its only member")
	}
	if m, ok := r.Lookup(1); !ok || m != "only" {
		t.Fatal("mutating a clone leaked into the original")
	}
}

func TestRouterTargetAndOwns(t *testing.T) {
	rt := NewRouter(7, 64)
	if rt.Target(5) != "" {
		t.Fatal("empty router returned a target")
	}
	rt.Add("a", "1.1.1.1:1")
	rt.Add("b", "2.2.2.2:2")

	ownsA, ownsB := rt.Owns("a"), rt.Owns("b")
	for d := uint64(0); d < 500; d++ {
		name, ok := rt.Owner(d)
		if !ok {
			t.Fatalf("no owner for device %d", d)
		}
		wantAddr, _ := rt.Addr(name)
		if got := rt.Target(d); got != wantAddr {
			t.Fatalf("device %d: Target %q, owner %s addr %q", d, got, name, wantAddr)
		}
		if ownsA(d) != (name == "a") || ownsB(d) != (name == "b") {
			t.Fatalf("device %d: Owns disagrees with Owner %s", d, name)
		}
	}

	// A restart on a new port is an address update: same owners, new dial
	// target, no membership change.
	rt.Add("a", "1.1.1.1:99")
	for d := uint64(0); d < 500; d++ {
		if name, _ := rt.Owner(d); name == "a" {
			if got := rt.Target(d); got != "1.1.1.1:99" {
				t.Fatalf("device %d: Target %q after the address update", d, got)
			}
		}
	}

	// Removal re-routes the dead member's devices to the survivor; the
	// Owns predicate tracks the live ring.
	rt.Remove("a")
	for d := uint64(0); d < 500; d++ {
		if got := rt.Target(d); got != "2.2.2.2:2" {
			t.Fatalf("device %d routed to %q after removal", d, got)
		}
		if ownsA(d) {
			t.Fatalf("removed member still owns device %d", d)
		}
		if !ownsB(d) {
			t.Fatalf("survivor does not own device %d", d)
		}
	}
}
