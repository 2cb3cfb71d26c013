package contingency

import (
	"sync"
	"sync/atomic"

	"gridmind/internal/model"
	"gridmind/internal/pool"
	"gridmind/internal/powerflow"
)

// Worker is one goroutine's zero-clone outage-analysis state, and the one
// worker every outage study runs on: branch, pair and generator sweeps
// here, cascades, episodes and Monte Carlo draws in package scenario. It
// holds a reusable OutageView over the shared immutable base network, a
// ViewSolver whose patched Ybus, compiled Jacobian and LU symbolic
// analysis persist across outages, its outage base (topology, ordering),
// the scratch of the allocation-free islanding check, and one branch mask
// marking the branches currently out. The warm-start base is
// passed per call, so a worker is bound to its network alone. Whoever
// sets mask bits clears them again, so a released worker's mask is all
// false. Not safe for concurrent use.
type Worker struct {
	n     *model.Network
	base  Base
	slack int

	view   *model.OutageView
	solver *powerflow.ViewSolver

	comp, stack []int
	mask        []bool
	// dispatch holds the view's dispatch while ShedToSolve scales it.
	dispatch []float64

	// work sums the LU work of the worker's solves since the last
	// takeSolveWork.
	work SolveWork
}

// SolveWork is the LU work of a study's AC solves: numeric
// factorizations, Newton rounds started on the base factor instead of one,
// and refactorizations whose frozen pivots went stale and re-pivoted. It
// also counts QRelaxed, the states SolveOrFallback solved only with the Q
// limits relaxed.
type SolveWork struct {
	Factorizations, BaseStarts, Repivots, QRelaxed int
}

// add sums o into w.
func (w *SolveWork) add(o SolveWork) {
	w.Factorizations += o.Factorizations
	w.BaseStarts += o.BaseStarts
	w.Repivots += o.Repivots
	w.QRelaxed += o.QRelaxed
}

// newWorker prepares a worker over n, which must have a slack bus, from
// n's outage base b: its solver value-copies b's Ybus.
func newWorker(n *model.Network, b Base) *Worker {
	solver, err := powerflow.NewViewSolver(n, b.Ybus())
	if err != nil {
		// Classification fails only without a slack bus, which every entry
		// point rejects up front (AnalyzeOne's contract excludes it).
		panic(err)
	}
	return &Worker{
		n:      n,
		base:   b,
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
// persistent solver, with the Jacobian ordering of the worker's base.
// Every solve's factorizations count toward the worker's solve work,
// fallback and shed-trial solves included.
func (w *Worker) Solve(opts powerflow.Options) (*powerflow.Result, error) {
	opts.Reorder = w.base.Ordering()
	res, err := w.solver.Solve(w.view, opts)
	if res != nil {
		w.work.add(SolveWork{Factorizations: res.Factorizations, BaseStarts: res.BaseFactorStarts, Repivots: res.Repivots})
	}
	return res, err
}

// SolveOrFallback is the recovery rung of the outage studies: Newton at
// opts and, if that fails, the same Newton on the same view from the case
// start profile with the Q limits relaxed. relaxed reports that the
// returned solution came from that second solve, so the record can say
// its generators may exceed their reactive limits; the worker counts it
// in SolveWork.QRelaxed. An error or an unconverged result means both
// failed.
func (w *Worker) SolveOrFallback(opts powerflow.Options) (res *powerflow.Result, relaxed bool, err error) {
	res, err = w.Solve(opts)
	if err == nil && res.Converged {
		return res, false, nil
	}
	res, err = w.Solve(powerflow.Options{})
	if err == nil && res.Converged {
		w.work.QRelaxed++
		return res, true, nil
	}
	return res, false, err
}

// ShedToSolve estimates the demand (MW) that must be shed before the
// view's current state solves with its Q limits relaxed: five bisection
// steps on a uniform scaling of its demand and dispatch, each a
// flat-start Newton solve on the worker with Q limits off. This
// approximates the "involuntary load shedding" the paper's CA evaluates.
// The view's demand and dispatch are restored on return.
func (w *Worker) ShedToSolve() float64 {
	v := w.view
	ls := v.LoadScale()
	var loadP float64
	for _, l := range w.n.Loads {
		if l.InService {
			loadP += l.P * ls
		}
	}
	w.dispatch = w.dispatch[:0]
	for g := range w.n.Gens {
		w.dispatch = append(w.dispatch, v.Gen(g).P)
	}
	scale := func(f float64) {
		v.ScaleLoads(ls * f)
		for g, p := range w.dispatch {
			v.SetGenP(g, p*f)
		}
	}
	lo, hi := 0.0, 1.0 // feasible scale in [lo, hi): lo solvable fraction
	for iter := 0; iter < 5; iter++ {
		mid := (lo + hi) / 2
		scale(mid)
		if res, err := w.Solve(powerflow.Options{FlatStart: true}); err == nil && res.Converged {
			lo = mid
		} else {
			hi = mid
		}
	}
	scale(1)
	return (1 - lo) * loadP
}

// takeSolveWork returns the LU work of the worker's solves since the last
// call, and zeroes it.
func (w *Worker) takeSolveWork() SolveWork {
	work := w.work
	w.work = SolveWork{}
	return work
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
	if w.base.Topology().IslandsMasked(w.mask, w.comp, w.stack) == 1 {
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

// SweepPool is the handle for one session state's outage base and its
// Workers: every outage study of the state reads the base's artifacts from
// it and checks its workers out of it, so a session that sweeps, screens
// pairs, studies generators and runs cascades — or several sessions
// sharing one engine — reuses the compiled Newton patterns and LU symbolic
// analyses instead of rebuilding them per call.
//
// A worker is valid for exactly the network it was built over: its
// solver's classification embeds the loads and dispatch, not just the
// topology, so the free list is keyed by the network pointer. Callers key
// pools by session state (case + diff hash), so every network a pool sees
// is the SAME state replayed by a different session (zero-diff sessions
// share the engine pristine); a free list per network lets each session
// reuse its own workers without evicting the others'. All of them share
// one structure, so the pool resolves one outage base, on first use.
type SweepPool struct {
	resolve func(*model.Network) Base
	once    sync.Once
	base    Base

	free *pool.Keyed[*model.Network, *Worker]
}

// maxPoolKeys bounds the free list's network map (distinct networks are
// one per session replica of the state; a runaway map means leaked
// sessions).
const maxPoolKeys = 16

// NewSweepPool returns an empty pool whose networks take their outage
// base from resolve (engine.Artifacts, or NewBase).
func NewSweepPool(resolve func(*model.Network) Base) *SweepPool {
	return &SweepPool{resolve: resolve, free: pool.NewKeyed[*model.Network, *Worker](maxPoolKeys)}
}

// ContextReuses reports how many workers were served from the pool.
func (p *SweepPool) ContextReuses() int64 { return p.free.Reuses() }

// ContextBuilds reports how many workers had to be built fresh (each
// build compiles a Jacobian pattern and an LU symbolic analysis).
func (p *SweepPool) ContextBuilds() int64 { return p.free.Builds() }

// Base returns the pool's outage base, resolving it from n (any network
// of the pool's state) on the first call.
func (p *SweepPool) Base(n *model.Network) Base {
	p.once.Do(func() { p.base = p.resolve(n) })
	return p.base
}

// Acquire checks out a worker for n, which must have a slack bus. Return
// it with Release.
func (p *SweepPool) Acquire(n *model.Network) *Worker {
	return p.free.Get(n, func() *Worker { return newWorker(n, p.Base(n)) })
}

// Release returns a worker to its network's free list.
func (p *SweepPool) Release(w *Worker) { p.free.Put(w.n, w) }

// Run is the one study driver of the outage sweeps: it fans items
// 0..count−1 over up to workers goroutines (workers ≥ 1). certify
// (optional) settles item i with no worker and reports whether it did;
// every other item runs solve on the goroutine's Worker, acquired on its
// first uncertified item and released when the goroutine ends. Callbacks
// run concurrently, one item each. Run returns the solves' LU work.
func (p *SweepPool) Run(n *model.Network, workers, count int,
	certify func(i int) bool, solve func(w *Worker, i int)) SolveWork {
	// One heap cell holds the shared cursor, the tally and the wait group.
	var run struct {
		next atomic.Int64
		mu   sync.Mutex
		work SolveWork
		wg   sync.WaitGroup
	}
	for g := min(workers, count); g > 0; g-- {
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			var w *Worker
			for i := int(run.next.Add(1) - 1); i < count; i = int(run.next.Add(1) - 1) {
				if certify != nil && certify(i) {
					continue
				}
				if w == nil {
					w = p.Acquire(n)
					w.takeSolveWork() // drop what its earlier studies did
				}
				solve(w, i)
			}
			if w != nil {
				run.mu.Lock()
				run.work.add(w.takeSolveWork())
				run.mu.Unlock()
				p.Release(w)
			}
		}()
	}
	run.wg.Wait()
	return run.work
}
