// Package ring routes devices to collectors: a seed-deterministic
// consistent-hash ring with virtual nodes (Ring), a thread-safe
// name→address router uploaders consult before every send (Router), and
// a FleetCollector harness that runs N store-backed collectors behind
// one ring with mid-run failover — the ingestion tier that makes the
// number of collectors a deployment knob.
package ring

import (
	"sort"
)

// DefaultVNodes is the virtual-node count per member when the caller
// passes <= 0. More vnodes smooth the key distribution (imbalance
// shrinks roughly with 1/sqrt(vnodes)) at the cost of a larger sorted
// point table; 512 keeps a 3-member ring within a few percent of even
// at negligible memory.
const DefaultVNodes = 512

// Ring is a consistent-hash ring mapping device IDs to member names.
// Placement is a pure function of (seed, membership): the same seed and
// members produce the identical assignment in every process, on every
// GOMAXPROCS, in every iteration order — which is what lets a fleet of
// collectors and thousands of uploaders agree on ownership without a
// coordination service. Removing a member moves only the keys that
// member owned (they redistribute to the survivors); every other key
// keeps its owner.
//
// Ring itself is not safe for concurrent mutation; Router wraps it with
// a lock for shared use.
type Ring struct {
	seed    int64
	vnodes  int
	members map[string]struct{}
	points  []point // sorted by (hash, member, vnode)
}

// point is one virtual node on the ring.
type point struct {
	hash   uint64
	member string
	vnode  int
}

// New creates an empty ring. vnodes <= 0 uses DefaultVNodes.
func New(seed int64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{seed: seed, vnodes: vnodes, members: make(map[string]struct{})}
}

// fnv1a64 constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// foldUint folds 8 bytes of x into an FNV-1a state.
func foldUint(h, x uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h ^= (x >> i) & 0xff
		h *= fnvPrime
	}
	return h
}

// mix64 is the splitmix64 finisher: FNV alone correlates nearby inputs
// (sequential device IDs, vnode indices), which would clump points on
// the ring; the finisher avalanches every input bit across the output.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pointHash positions one virtual node: hash of (seed, member, vnode).
func (r *Ring) pointHash(member string, vnode int) uint64 {
	h := uint64(fnvOffset)
	h = foldUint(h, uint64(r.seed))
	for i := 0; i < len(member); i++ {
		h ^= uint64(member[i])
		h *= fnvPrime
	}
	h = foldUint(h, uint64(vnode))
	return mix64(h)
}

// keyHash positions a device ID on the same circle.
func (r *Ring) keyHash(device uint64) uint64 {
	h := uint64(fnvOffset)
	h = foldUint(h, uint64(r.seed))
	h = foldUint(h, device)
	return mix64(h)
}

// Add inserts members (idempotently) and re-sorts the point table.
func (r *Ring) Add(members ...string) {
	changed := false
	for _, m := range members {
		if _, ok := r.members[m]; ok || m == "" {
			continue
		}
		r.members[m] = struct{}{}
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, point{hash: r.pointHash(m, v), member: m, vnode: v})
		}
		changed = true
	}
	if changed {
		r.sortPoints()
	}
}

// Remove deletes a member and its points; unknown members are a no-op.
// The surviving points keep their positions, so only the removed
// member's keys change owner.
func (r *Ring) Remove(member string) {
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// sortPoints orders the table by hash; ties (astronomically unlikely,
// but determinism must not hinge on luck) break by member name, then
// vnode index, so the assignment never depends on insertion order.
func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.member != b.member {
			return a.member < b.member
		}
		return a.vnode < b.vnode
	})
}

// Lookup returns the member owning device: the first virtual node at or
// clockwise of the device's hash, wrapping at the top. ok is false only
// on an empty ring.
func (r *Ring) Lookup(device uint64) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := r.keyHash(device)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member, true
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Clone returns an independent copy, so a planned membership change can
// be evaluated (e.g. who inherits a dead member's devices) before the
// live ring exposes it.
func (r *Ring) Clone() *Ring {
	c := &Ring{
		seed:    r.seed,
		vnodes:  r.vnodes,
		members: make(map[string]struct{}, len(r.members)),
		points:  append([]point(nil), r.points...),
	}
	for m := range r.members {
		c.members[m] = struct{}{}
	}
	return c
}
