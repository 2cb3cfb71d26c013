package contingency

import (
	"errors"
	"fmt"
	"sync/atomic"

	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// One outage pipeline serves the N-1 sweep (Analyze) and the N-2 sweep
// (AnalyzeN2). An outage is an N2Pair; a single branch outage is its
// one-element case, BranchB = Gen = −1. The driver and the zero-clone
// analyzer each exist once and branch on the outage's shape only where
// the physics differs; the DC screen sees single outages only.

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
// screen when dcScreen is set (single outages only: the N-2 sweep never
// screens), then zero-clone AC analysis — and returns
// one record per outage in list order, whatever the worker count. kind
// labels the sweep metrics ("n1" or "n2"); an "n2" list must hold pairs
// only. A network without a slack bus fails as ErrNoBase: no base of it
// can have converged, and it cannot host a view solver.
func sweep(n *model.Network, base *powerflow.Result, outages []N2Pair, kind string, dcScreen bool, opts Options) (*ResultSet, error) {
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
	b, err := opts.base(n)
	if err != nil {
		return nil, err
	}
	// Screening is an optimization: when the screener cannot be built,
	// every outage takes the AC path.
	var screen *screener
	if dcScreen {
		screen, _ = newScreener(n, base, b)
	}

	// A cache hit and a screener certificate settle an outage with no
	// worker; the rest run on a Run goroutine's worker, checked out of
	// the state's SweepPool, so the per-outage cost is the solve itself.
	var keys []string
	if opts.Cache != nil {
		keys = make([]string, len(outages))
	}
	settle := func(i int, r *OutageResult) {
		rs.Outages[i] = *r
		if opts.Cache != nil {
			opts.Cache.Put(keys[i], r)
		}
	}
	var screened atomic.Int64
	certify := func(i int) bool {
		if opts.Cache != nil {
			keys[i] = outages[i].cacheKey(opts.CacheKeyPrefix, n.Name)
			if hit, ok := opts.Cache.Get(keys[i]); ok {
				rs.Outages[i] = *hit
				return true
			}
		}
		if screen == nil {
			return false
		}
		r := screen.trySecure(n, outages[i].BranchA)
		if r == nil {
			return false
		}
		screened.Add(1)
		settle(i, r)
		return true
	}
	work := opts.Pool.Run(n, opts.Workers, len(outages), certify,
		func(w *Worker, i int) { settle(i, w.analyze(base, outages[i], opts)) })
	rs.Screened = int(screened.Load())
	recordSweep(opts.Metrics, kind, len(outages), rs.Screened, work)
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
// and a generator loss rides the solver's in-place classification. A
// failed solve escalates on the same view: Newton with the Q limits
// relaxed, labelled so, then the load-shed estimate.
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
		out.Severity = severity(out)
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
	pfOpts := powerflow.Options{EnforceQLimits: true}
	if !opts.NoWarmStart {
		pfOpts.Warm = &base.Voltages
	}
	res, relaxed, err := w.SolveOrFallback(pfOpts)
	if err != nil || !res.Converged {
		out.LoadShedMW = w.ShedToSolve()
		out.Severity = severity(out) + deficit
		return out
	}
	scoreOutage(out, res, w.n, w.mask)
	out.QLimitsRelaxed = relaxed
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
