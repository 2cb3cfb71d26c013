package contingency

import (
	"gridmind/internal/model"
	"gridmind/internal/pool"
	"gridmind/internal/powerflow"
)

// SweepPool recycles the zero-clone worker contexts (sweepContext for
// branch/pair outages, genSweepContext for generator outages) across
// Analyze/AnalyzeOne/AnalyzeN2/AnalyzeGenOutage calls, so a session that
// sweeps repeatedly — or several sessions sharing one engine — reuse the
// compiled Newton patterns and LU symbolic analyses instead of rebuilding
// them per call.
//
// A context is only valid for the exact (network, base power flow) pair it
// was built from: the solver's classification embeds loads and dispatch,
// not just topology. Free lists are therefore keyed by that pointer pair
// (generator-outage contexts by the network alone; generator views never
// read the base power flow). Callers key pools by session state (case +
// diff hash), so every pair a pool sees is the SAME state replayed by a
// different session (zero-diff sessions share the engine pristine and hence
// one pair); a free list per pair lets each session reuse its own contexts
// without evicting the others'. A nil *SweepPool is valid and builds a
// throwaway context per acquire.
type SweepPool struct {
	ctx *pool.Keyed[poolKey, *sweepContext]
	gen *pool.Keyed[*model.Network, *genSweepContext]
}

// poolKey identifies the exact binding a sweep context is valid for.
type poolKey struct {
	n    *model.Network
	base *powerflow.Result
}

// maxPoolKeys bounds each free-list's binding map (distinct bindings are
// one per session replica of the state; a runaway map means leaked
// sessions).
const maxPoolKeys = 16

// NewSweepPool returns an empty pool.
func NewSweepPool() *SweepPool {
	return &SweepPool{
		ctx: pool.NewKeyed[poolKey, *sweepContext](maxPoolKeys),
		gen: pool.NewKeyed[*model.Network, *genSweepContext](maxPoolKeys),
	}
}

// ContextReuses reports how many worker contexts were served from the pool.
func (p *SweepPool) ContextReuses() int64 { return p.ctx.Reuses() + p.gen.Reuses() }

// ContextBuilds reports how many worker contexts had to be built fresh
// (each build compiles a Jacobian pattern and an LU symbolic analysis).
func (p *SweepPool) ContextBuilds() int64 { return p.ctx.Builds() + p.gen.Builds() }

// acquire returns a worker context for (n, base); topo and baseY feed a
// fresh build exactly as newSweepContext takes them.
func (p *SweepPool) acquire(n *model.Network, base *powerflow.Result, topo *model.Topology, baseY *model.Ybus) *sweepContext {
	if p == nil {
		return newSweepContext(n, base, topo, baseY)
	}
	return p.ctx.Get(poolKey{n, base}, func() *sweepContext { return newSweepContext(n, base, topo, baseY) })
}

// release returns a context to the free list of the pair it was built for.
func (p *SweepPool) release(c *sweepContext) {
	if p != nil && c != nil {
		p.ctx.Put(poolKey{c.n, c.base}, c)
	}
}

// acquireGen is acquire for generator-outage contexts.
func (p *SweepPool) acquireGen(n *model.Network, baseY *model.Ybus) *genSweepContext {
	if p == nil {
		return newGenSweepContext(n, baseY)
	}
	return p.gen.Get(n, func() *genSweepContext { return newGenSweepContext(n, baseY) })
}

// releaseGen returns a generator-outage context to its network's free list.
func (p *SweepPool) releaseGen(c *genSweepContext) {
	if p != nil && c != nil {
		p.gen.Put(c.n, c)
	}
}
