package contingency

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// One outage pipeline serves the N-1 sweep (Analyze) and the N-2 sweep
// (AnalyzeN2). An outage is an N2Pair; a single branch outage is its
// one-element case, BranchB = Gen = −1. The driver, the DC screen and the
// zero-clone analyzer each exist once and branch on the outage's shape
// only where the physics differs.

// branchOutage is the single-outage case of N2Pair.
func branchOutage(k int) N2Pair { return N2Pair{BranchA: k, BranchB: -1, Gen: -1} }

// isPair reports whether p names a second element.
func (p N2Pair) isPair() bool { return p.BranchB >= 0 || p.Gen >= 0 }

// cacheKey is Key for a single outage and PairKey for a pair.
func (p N2Pair) cacheKey(prefix, caseName string) string {
	if p.isPair() {
		return PairKey(prefix, caseName, p)
	}
	return Key(prefix, caseName, p.BranchA)
}

// ErrInvalidOutage is wrapped by every rejection of an outage list: an
// out-of-range or out-of-service branch, a malformed pair, or a generator
// whose loss has no steady state. Retrying the same list cannot succeed.
var ErrInvalidOutage = errors.New("contingency: invalid outage")

// validateOutages rejects up front any outage no sweep can analyze, so
// none panics a worker or silently degrades to a different contingency
// downstream. pairsOnly (the N-2 sweep) also rejects single outages.
func validateOutages(n *model.Network, outages []N2Pair, pairsOnly bool) error {
	usable := func(k int) bool { return k >= 0 && k < len(n.Branches) && n.Branches[k].InService }
	var probe *model.OutageView
	for _, p := range outages {
		switch {
		case !usable(p.BranchA):
			return fmt.Errorf("%w: branch %d is out of range or out of service", ErrInvalidOutage, p.BranchA)
		case p.BranchB >= 0 && p.Gen >= 0:
			return fmt.Errorf("%w: pair (%d) carries both a second branch and a generator", ErrInvalidOutage, p.BranchA)
		case !p.isPair():
			if pairsOnly {
				return fmt.Errorf("%w: N-2 pair (%d) has no second element", ErrInvalidOutage, p.BranchA)
			}
		case p.BranchB >= 0:
			if !usable(p.BranchB) {
				return fmt.Errorf("%w: branch %d is out of range or out of service", ErrInvalidOutage, p.BranchB)
			}
			if p.BranchB == p.BranchA {
				return fmt.Errorf("%w: pair lists branch %d twice", ErrInvalidOutage, p.BranchA)
			}
		default:
			if probe == nil {
				probe = model.NewOutageView(n)
			}
			probe.Reset()
			if _, _, err := prepareGenOutage(n, probe, p.Gen); err != nil {
				return fmt.Errorf("%w: pair (branch %d, gen %d): %v", ErrInvalidOutage, p.BranchA, p.Gen, err)
			}
		}
	}
	return nil
}

// sweep runs the outage list through the pipeline — cache, then the DC
// screen when dcScreen is set, then zero-clone AC analysis — and returns
// one record per outage in list order, whatever the worker count. kind
// labels the sweep metrics ("n1" or "n2"); an "n2" list must hold pairs
// only. A network without a slack bus fails as ErrNoBase: no base of it
// can have converged, and it cannot host a view solver.
func sweep(n *model.Network, base *powerflow.Result, outages []N2Pair, kind string, dcScreen bool, opts Options) (*ResultSet, error) {
	opts.fill()
	if base == nil || !base.Converged || n.SlackBus() < 0 {
		return nil, ErrNoBase
	}
	if err := validateOutages(n, outages, kind == "n2"); err != nil {
		return nil, err
	}
	rs := &ResultSet{
		CaseName:         n.Name,
		Outages:          make([]OutageResult, len(outages)),
		BaseMinVoltagePU: base.MinVm,
	}
	for _, f := range base.Flows {
		if f.LoadingPct > rs.BaseMaxLoadingPct {
			rs.BaseMaxLoadingPct = f.LoadingPct
		}
	}
	if opts.Reorder == nil {
		opts.Reorder = powerflow.NewOrderingCache()
	}
	// Screening is an optimization: when the screener cannot be built,
	// every outage takes the AC path.
	var screen *screener
	if dcScreen {
		screen, _ = newScreener(n, base, opts)
	}

	// Goroutines over the outage list. Each checks out one Worker (patched
	// Ybus, reusable Newton state, topology scratch) on its first AC
	// analysis — from the engine's SweepPool, which carries compiled
	// workers across whole sweeps and studies, when one is wired — so
	// the per-outage cost is the solve itself. The shared Ybus and topology
	// come from Options when the engine provides them; otherwise they are
	// built once, and only if some worker reaches the view path.
	baseY, topo := opts.BaseYbus, opts.Topology
	var prepOnce sync.Once
	prep := func() {
		if baseY == nil {
			baseY = model.BuildYbus(n)
		}
		if topo == nil {
			topo = model.NewTopology(n)
		}
	}
	var next, screened, facts, baseStarts atomic.Int64
	var wg sync.WaitGroup
	for w := min(opts.Workers, len(outages)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w *Worker
			defer func() {
				if w != nil {
					f, b := w.takeNewtonWork()
					facts.Add(int64(f))
					baseStarts.Add(int64(b))
				}
				opts.Pool.Release(w)
			}()
			for {
				idx := int(next.Add(1) - 1)
				if idx >= len(outages) {
					return
				}
				p := outages[idx]
				var key string
				if opts.Cache != nil {
					key = p.cacheKey(opts.CacheKeyPrefix, n.Name)
					if hit, ok := opts.Cache.Get(key); ok {
						rs.Outages[idx] = *hit
						continue
					}
				}
				var r *OutageResult
				if screen != nil {
					r = screen.trySecure(n, p, opts)
				}
				if r != nil {
					screened.Add(1)
				} else {
					if w == nil {
						prepOnce.Do(prep)
						w = opts.Pool.Acquire(n, topo, baseY)
						w.takeNewtonWork() // drop what its earlier studies did
					}
					r = w.analyze(base, p, opts)
				}
				rs.Outages[idx] = *r
				if opts.Cache != nil {
					opts.Cache.Put(key, r)
				}
			}
		}()
	}
	wg.Wait()
	rs.Screened = int(screened.Load())
	recordSweep(opts.Metrics, kind, len(outages), rs.Screened, int(facts.Load()), int(baseStarts.Load()))
	return rs, nil
}

// newOutageResult prepares the identity fields of p's record; only pairs
// carry the IsPair block.
func newOutageResult(n *model.Network, p N2Pair) *OutageResult {
	br := n.Branches[p.BranchA]
	out := &OutageResult{
		Branch:    p.BranchA,
		FromBusID: n.Buses[br.From].ID,
		ToBusID:   n.Buses[br.To].ID,
		IsXfmr:    br.IsTransformer,
	}
	if !p.isPair() {
		return out
	}
	out.IsPair, out.Branch2, out.Gen2 = true, p.BranchB, p.Gen
	if p.BranchB >= 0 {
		b2 := n.Branches[p.BranchB]
		out.From2BusID = n.Buses[b2.From].ID
		out.To2BusID = n.Buses[b2.To].ID
	}
	if p.Gen >= 0 {
		out.Gen2BusID = n.Buses[n.Gens[p.Gen].Bus].ID
	}
	return out
}

// analyze simulates the outage p — one branch, two branches, or a branch
// plus a generator — on the zero-clone path, warm-started from base, and
// scores it, matching the clone reference in reference_test.go
// result-for-result (the differential harnesses enforce this). The
// outaged branches are set in the worker's mask for the islanding check
// and the scoring, and cleared on return; the view stacks the outages,
// whose rank-1 Ybus patches stack the same way inside ViewSolver.Solve;
// and a generator loss rides the solver's in-place classification instead
// of falling back to Materialize.
func (w *Worker) analyze(base *powerflow.Result, p N2Pair, opts Options) *OutageResult {
	out := newOutageResult(w.n, p)
	w.markOut(p, true)
	defer w.markOut(p, false)

	// Islanding check first: an outage that splits the grid sheds all load
	// outside the slack's island. The topology is prebuilt, so this costs
	// one buffer-reusing traversal instead of an adjacency rebuild.
	if shed, split := w.IslandedLoad(1); split {
		out.Islanded = true
		out.LoadShedMW = shed
		out.Severity = severity(out, opts)
		return out
	}

	w.view.Reset()
	w.view.OutBranch(p.BranchA)
	if p.BranchB >= 0 {
		w.view.OutBranch(p.BranchB)
	}
	var deficit float64
	if p.Gen >= 0 {
		// validateOutages admits only units whose loss has a steady state.
		_, deficit, _ = prepareGenOutage(w.n, w.view, p.Gen)
	}
	pfOpts := powerflow.Options{EnforceQLimits: true, Reorder: opts.Reorder}
	if !opts.NoWarmStart {
		pfOpts.Warm = &base.Voltages
	}
	res, err := w.Solve(pfOpts)
	if err != nil || !res.Converged {
		// Fallback: fast-decoupled is more tolerant of poor starts. The
		// materialized overlay serves both the fallback and, if that also
		// fails, the load-shed estimate.
		post := w.view.Materialize()
		res, err = powerflow.Solve(post, powerflow.Options{Algorithm: powerflow.FastDecoupled})
		if err != nil || !res.Converged {
			out.LoadShedMW = estimateLoadShed(post)
			out.Severity = severity(out, opts) + deficit
			return out
		}
	}
	scoreOutage(out, res, w.n, w.mask, opts)
	out.Severity += deficit
	return out
}

// markOut sets (or clears) p's branches in the worker's mask.
func (w *Worker) markOut(p N2Pair, out bool) {
	w.mask[p.BranchA] = out
	if p.BranchB >= 0 {
		w.mask[p.BranchB] = out
	}
}
