// Package pool holds the one free-list every worker-context pool in the
// repository instantiates: the outage workers every contingency and
// scenario study runs on, and the engine's interior-point solver contexts.
package pool

import (
	"sync"
	"sync/atomic"
)

// Keyed is a free-list of reusable values partitioned by key. A value is
// only ever handed back out under the key it was Put under, so callers key
// by whatever a value's compiled state is bound to (a network pointer, a
// structural signature). Safe for concurrent use; the values themselves are
// single-owner between Get and Put.
type Keyed[K comparable, V any] struct {
	mu      sync.Mutex
	free    map[K][]V
	maxKeys int

	reuses, builds atomic.Int64
}

// NewKeyed returns an empty free-list. maxKeys bounds the number of
// distinct keys held: a Put under a new key beyond the cap drops every
// list first, which costs rebuilds, never correctness. Zero means
// unbounded, for key spaces that are bounded by construction.
func NewKeyed[K comparable, V any](maxKeys int) *Keyed[K, V] {
	return &Keyed[K, V]{free: make(map[K][]V), maxKeys: maxKeys}
}

// Get pops a value Put under k, or calls build (outside the lock) when
// none is free.
func (p *Keyed[K, V]) Get(k K, build func() V) V {
	p.mu.Lock()
	if list := p.free[k]; len(list) > 0 {
		v := list[len(list)-1]
		p.free[k] = list[:len(list)-1]
		p.mu.Unlock()
		p.reuses.Add(1)
		return v
	}
	p.mu.Unlock()
	p.builds.Add(1)
	return build()
}

// Put returns v to k's list.
func (p *Keyed[K, V]) Put(k K, v V) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.free[k]; !ok && p.maxKeys > 0 && len(p.free) >= p.maxKeys {
		clear(p.free)
	}
	p.free[k] = append(p.free[k], v)
}

// Reuses reports how many Gets were served from a list.
func (p *Keyed[K, V]) Reuses() int64 { return p.reuses.Load() }

// Builds reports how many Gets had to call build.
func (p *Keyed[K, V]) Builds() int64 { return p.builds.Load() }
