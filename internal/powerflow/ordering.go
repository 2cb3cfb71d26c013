package powerflow

import (
	"sync"
	"sync/atomic"
)

// OrderingCache memoizes fill-reducing column orderings of the Newton
// Jacobian across solves of structurally similar networks — the N-1 sweep
// is the canonical user: every outage solves a network that differs from
// the base by one branch, so the base ordering is reused instead of
// recomputing the minimum-degree ordering per outage.
//
// Orderings are keyed by Jacobian dimension. Any permutation of the right
// length is a valid elimination order for the LU (the choice affects only
// fill-in, never correctness), so reusing an ordering computed for a
// slightly different pattern of the same dimension is safe.
//
// The zero value is not usable; create with NewOrderingCache. All methods
// are safe for concurrent use.
type OrderingCache struct {
	mu    sync.Mutex
	perms map[int][]int

	// misses counts lookups that found no ordering for the dimension —
	// each one makes the caller compute a fresh ordering. A store-warmed
	// worker asserts this stays at zero across a whole sweep.
	misses atomic.Int64
}

// NewOrderingCache returns an empty ordering cache.
func NewOrderingCache() *OrderingCache {
	return &OrderingCache{perms: make(map[int][]int)}
}

// Misses reports how many lookups found no cached ordering. Each miss
// corresponds to one ordering computation at the caller; the engine's
// artifact store uses it to counter-assert that a warmed worker computes
// zero orderings.
func (c *OrderingCache) Misses() int64 { return c.misses.Load() }

// Export snapshots the cached orderings, keyed by Jacobian dimension, for
// the engine's persistent artifact store. The permutation slices are
// shared — treat them as immutable, exactly like the cache's own entries.
func (c *OrderingCache) Export() map[int][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int][]int, len(c.perms))
	for dim, perm := range c.perms {
		out[dim] = perm
	}
	return out
}

// Import installs persisted orderings with first-writer-wins semantics per
// dimension (matching storeOrdering), validating that each permutation is
// a bijection of its dimension so a corrupt artifact file cannot smuggle
// an out-of-range elimination order into the LU.
func (c *OrderingCache) Import(perms map[int][]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for dim, perm := range perms {
		if _, ok := c.perms[dim]; ok || !validPerm(dim, perm) {
			continue
		}
		c.perms[dim] = perm
	}
}

// validPerm reports whether perm is a permutation of 0..dim-1.
func validPerm(dim int, perm []int) bool {
	if dim <= 0 || len(perm) != dim {
		return false
	}
	seen := make([]bool, dim)
	for _, p := range perm {
		if p < 0 || p >= dim || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// lookupOrdering returns the cached ordering for the dimension, or nil.
func lookupOrdering(c *OrderingCache, dim int) []int {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	perm, ok := c.perms[dim]
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
	}
	return perm
}

// storeOrdering records an ordering; the first writer for a dimension
// wins, so concurrent solvers converge on one ordering.
func storeOrdering(c *OrderingCache, dim int, perm []int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.perms[dim]; !ok {
		c.perms[dim] = perm
	}
}
