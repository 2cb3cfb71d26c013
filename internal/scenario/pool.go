package scenario

import (
	"gridmind/internal/model"
	"gridmind/internal/pool"
)

// Pool recycles cascade worker contexts (Ctx) across Cascade / Sweep /
// Episode / RunMC calls, so repeated scenario studies over one engine
// reuse the compiled Newton patterns and LU symbolic analyses instead of
// rebuilding them per call.
//
// A Ctx is valid for exactly the base network it was built over (its
// solver's pristine classification embeds the base loads and dispatch;
// per-event load scales and redispatch ride the view, not the context),
// so the free-list is keyed by the network pointer.
type Pool struct {
	ctx *pool.Keyed[*model.Network, *Ctx]
}

// maxPoolNets bounds the pool's network map (one entry per distinct case
// state; a runaway map means leaked sessions).
const maxPoolNets = 16

// NewPool returns an empty context pool.
func NewPool() *Pool {
	return &Pool{ctx: pool.NewKeyed[*model.Network, *Ctx](maxPoolNets)}
}

// ContextReuses reports how many worker contexts were served from the pool.
func (p *Pool) ContextReuses() int64 { return p.ctx.Reuses() }

// ContextBuilds reports how many worker contexts had to be built fresh.
func (p *Pool) ContextBuilds() int64 { return p.ctx.Builds() }

// acquireCtx serves one worker context from the options' pool, or builds
// a throwaway one when no pool is wired.
func acquireCtx(opts *Options, n *model.Network) *Ctx {
	if opts.Pool == nil {
		return NewCtx(n, opts.Topology, opts.BaseYbus)
	}
	return opts.Pool.ctx.Get(n, func() *Ctx { return NewCtx(n, opts.Topology, opts.BaseYbus) })
}

// releaseCtx hands the context back to the pool (no-op without one).
func releaseCtx(opts *Options, c *Ctx) {
	if opts.Pool != nil {
		opts.Pool.ctx.Put(c.n, c)
	}
}
