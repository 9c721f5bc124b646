package ring

import (
	"sync"
)

// Router is the shared, thread-safe view of the ring that uploaders and
// collectors consult: membership is keyed by stable member *names* (so a
// collector restarted on a different port is an address update, not a
// membership change), and Target resolves a device straight to the
// current owner's dial address. Router implements trace.TargetRouter.
type Router struct {
	mu    sync.Mutex
	ring  *Ring
	addrs map[string]string
}

// NewRouter creates a router over an empty ring with the given seed and
// virtual-node count (vnodes <= 0 uses DefaultVNodes).
func NewRouter(seed int64, vnodes int) *Router {
	return &Router{ring: New(seed, vnodes), addrs: make(map[string]string)}
}

// Add joins a member under name at addr. Adding a name already present
// only updates its address (no membership change).
func (r *Router) Add(name, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.addrs[name]; !ok {
		r.ring.Add(name)
		mMembership.Inc()
	}
	r.addrs[name] = addr
}

// Remove drops a member; its devices re-route to the survivors on the
// very next Target call. Unknown names are a no-op.
func (r *Router) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.addrs[name]; !ok {
		return
	}
	delete(r.addrs, name)
	r.ring.Remove(name)
	mMembership.Inc()
}

// Target resolves the collector address device should upload to now, or
// "" when the ring is empty (trace.TargetRouter).
func (r *Router) Target(device uint64) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	name, ok := r.ring.Lookup(device)
	if !ok {
		return ""
	}
	return r.addrs[name]
}

// Owner returns the owning member's name for device.
func (r *Router) Owner(device uint64) (name string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Lookup(device)
}

// Owns returns a predicate suitable for trace.CollectorOptions.Owns: it
// answers, per batch, whether the named member currently owns the
// device. The predicate tracks later membership changes — it reads the
// live ring on every call.
func (r *Router) Owns(name string) func(device uint64) bool {
	return func(device uint64) bool {
		owner, ok := r.Owner(device)
		return ok && owner == name
	}
}

// Addr returns the member's dial address, if present.
func (r *Router) Addr(name string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.addrs[name]
	return a, ok
}

// Snapshot returns an independent copy of the current ring, for
// evaluating a planned membership change without exposing it.
func (r *Router) Snapshot() *Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Clone()
}
