package contingency

import (
	"gridmind/internal/model"
	"gridmind/internal/pool"
	"gridmind/internal/powerflow"
)

// Worker is one goroutine's zero-clone outage-analysis state, and the one
// worker every outage study runs on: branch, pair and generator sweeps
// here, cascades, episodes and Monte Carlo draws in package scenario. It
// holds a reusable OutageView over the shared immutable base network, a
// ViewSolver whose patched Ybus, compiled Jacobian and LU symbolic
// analysis persist across outages, the base topology with the scratch of
// the allocation-free islanding check, and one branch mask marking the
// branches currently out. The warm-start base is passed per call, so a
// worker is bound to its network alone. Whoever sets mask bits clears
// them again, so a released worker's mask is all false. Not safe for
// concurrent use.
type Worker struct {
	n     *model.Network
	topo  *model.Topology
	slack int

	view   *model.OutageView
	solver *powerflow.ViewSolver

	comp, stack []int
	mask        []bool

	// factorizations and baseStarts sum the Newton work of the worker's
	// solves since the last takeNewtonWork.
	factorizations, baseStarts int
}

// newWorker prepares a worker over n, which must have a slack bus. topo
// (optional) must be built from n; nil builds one on the first islanding
// check, which a generator sweep never makes. baseY (optional) is the
// shared base admittance matrix to value-copy.
func newWorker(n *model.Network, topo *model.Topology, baseY *model.Ybus) *Worker {
	solver, err := powerflow.NewViewSolver(n, baseY)
	if err != nil {
		// Classification fails only without a slack bus, which every entry
		// point rejects up front (AnalyzeOne's contract excludes it).
		panic(err)
	}
	return &Worker{
		n:      n,
		topo:   topo,
		slack:  n.SlackBus(),
		view:   model.NewOutageView(n),
		solver: solver,
		comp:   make([]int, len(n.Buses)),
		stack:  make([]int, len(n.Buses)),
		mask:   make([]bool, len(n.Branches)),
	}
}

// View returns the worker's outage view; callers Reset it before staging
// a new state.
func (w *Worker) View() *model.OutageView { return w.view }

// Solve runs the power flow of the view's current state on the worker's
// persistent solver.
func (w *Worker) Solve(opts powerflow.Options) (*powerflow.Result, error) {
	res, err := w.solver.Solve(w.view, opts)
	if res != nil {
		w.factorizations += res.Factorizations
		w.baseStarts += res.BaseFactorStarts
	}
	return res, err
}

// takeNewtonWork returns the LU factorizations and base-factor starts of
// the worker's Newton solves since the last call, and zeroes them.
func (w *Worker) takeNewtonWork() (factorizations, baseStarts int) {
	factorizations, baseStarts = w.factorizations, w.baseStarts
	w.factorizations, w.baseStarts = 0, 0
	return factorizations, baseStarts
}

// Mask returns the worker's branch mask: mask[k] marks branch k out for
// IslandedLoad and Violations. A caller that sets bits clears them before
// it releases the worker.
func (w *Worker) Mask() []bool { return w.mask }

// IslandedLoad reports whether the branches set in the mask split the
// grid and, if so, the in-service demand outside the slack's island at
// load scale ls. The traversal runs over the prebuilt topology into the
// worker's buffers and allocates nothing.
func (w *Worker) IslandedLoad(ls float64) (float64, bool) {
	if w.topo == nil {
		w.topo = model.NewTopology(w.n)
	}
	if w.topo.IslandsMasked(w.mask, w.comp, w.stack) == 1 {
		return 0, false
	}
	return islandedLoad(w.n.Loads, w.comp, w.slack, ls), true
}

// islandedLoad is the in-service demand (MW, at load scale ls) outside the
// slack's island, given the component label of every bus.
func islandedLoad(loads []model.Load, comp []int, slack int, ls float64) float64 {
	var mw float64
	for _, l := range loads {
		if l.InService && comp[l.Bus] != comp[slack] {
			mw += l.P * ls
		}
	}
	return mw
}

// SweepPool recycles Workers across every outage study of one session
// state, so a session that sweeps, screens pairs, studies generators and
// runs cascades — or several sessions sharing one engine — reuses the
// compiled Newton patterns and LU symbolic analyses instead of rebuilding
// them per call.
//
// A worker is valid for exactly the network it was built over: its
// solver's classification embeds the loads and dispatch, not just the
// topology, so the free list is keyed by the network pointer. Callers key
// pools by session state (case + diff hash), so every network a pool sees
// is the SAME state replayed by a different session (zero-diff sessions
// share the engine pristine); a free list per network lets each session
// reuse its own workers without evicting the others'. A nil *SweepPool is
// valid and builds a throwaway worker per Acquire.
type SweepPool struct {
	free *pool.Keyed[*model.Network, *Worker]
}

// maxPoolKeys bounds the free list's network map (distinct networks are
// one per session replica of the state; a runaway map means leaked
// sessions).
const maxPoolKeys = 16

// NewSweepPool returns an empty pool.
func NewSweepPool() *SweepPool {
	return &SweepPool{free: pool.NewKeyed[*model.Network, *Worker](maxPoolKeys)}
}

// ContextReuses reports how many workers were served from the pool.
func (p *SweepPool) ContextReuses() int64 { return p.free.Reuses() }

// ContextBuilds reports how many workers had to be built fresh (each
// build compiles a Jacobian pattern and an LU symbolic analysis).
func (p *SweepPool) ContextBuilds() int64 { return p.free.Builds() }

// Acquire checks out a worker for n, which must have a slack bus. topo and
// baseY (both optional) are n's shared topology and base admittance
// matrix, used when a worker has to be built. Return it with Release.
func (p *SweepPool) Acquire(n *model.Network, topo *model.Topology, baseY *model.Ybus) *Worker {
	if p == nil {
		return newWorker(n, topo, baseY)
	}
	return p.free.Get(n, func() *Worker { return newWorker(n, topo, baseY) })
}

// Release returns a worker to its network's free list (no-op for a nil
// pool or worker).
func (p *SweepPool) Release(w *Worker) {
	if p != nil && w != nil {
		p.free.Put(w.n, w)
	}
}
