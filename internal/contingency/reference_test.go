package contingency

import (
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// The brute-force references the differential harnesses pin the zero-clone
// paths against. They share the scoring rules (scoreOutage,
// scoreGenOutage, severity) with production code, and nothing of the solve
// machinery: each outage deep-clones (or materializes) the network and
// re-solves it from scratch, and a collapse's load-shed estimate bisects
// over a trial network instead of the worker's view. opts must be filled.

// analyzeClone is the deep-clone reference for Worker.analyze —
// clone, mark the elements out (with governor redispatch for a generator),
// islanding check, warm Newton with a Q-relaxed Newton fallback.
func analyzeClone(n *model.Network, base *powerflow.Result, p N2Pair, opts Options) *OutageResult {
	out := newOutageResult(n, p)
	post := n.Clone()
	post.Branches[p.BranchA].InService = false
	if p.BranchB >= 0 {
		post.Branches[p.BranchB].InService = false
	}
	var deficit float64
	if p.Gen >= 0 {
		view := model.NewOutageView(n)
		var err error
		if _, deficit, err = prepareGenOutage(n, view, p.Gen); err == nil {
			post.Gens[p.Gen].InService = false
			for gi := range post.Gens {
				if post.Gens[gi].InService {
					post.Gens[gi].P = view.Gen(gi).P
				}
			}
		}
	}

	comp, count := post.ConnectedComponents()
	if count > 1 {
		out.Islanded = true
		out.LoadShedMW = islandedLoad(post.Loads, comp, post.SlackBus(), 1)
		out.Severity = severity(out)
		return out
	}

	pfOpts := powerflow.Options{EnforceQLimits: true, Reorder: opts.Reorder}
	if !opts.NoWarmStart {
		pfOpts.Warm = base.Voltages.Clone()
	}
	res, relaxed, err := solveOrRelax(post, pfOpts)
	if err != nil || !res.Converged {
		out.LoadShedMW = estimateLoadShed(post)
		out.Severity = severity(out) + deficit
		return out
	}
	mask := make([]bool, len(post.Branches))
	mask[p.BranchA] = true
	if p.BranchB >= 0 {
		mask[p.BranchB] = true
	}
	scoreOutage(out, res, post, mask)
	out.QLimitsRelaxed = relaxed
	out.Severity += deficit
	return out
}

// analyzeGenOutageMaterialize is the reference for
// Worker.analyzeGen: the view is materialized into a network and
// solved through the general-purpose solver, instead of re-deriving the
// classification in place.
func analyzeGenOutageMaterialize(n *model.Network, g int, opts Options) (*GenOutageResult, error) {
	view := model.NewOutageView(n)
	lost, deficit, err := prepareGenOutage(n, view, g)
	if err != nil {
		return nil, err
	}
	out := &GenOutageResult{
		Gen:              g,
		BusID:            n.Buses[n.Gens[g].Bus].ID,
		LostMW:           lost,
		ReserveDeficitMW: deficit,
	}
	// The outage touches only generation, so Materialize copies the
	// generator slice and shares everything else with the base.
	post := view.Materialize()

	res, relaxed, err := solveOrRelax(post, powerflow.Options{EnforceQLimits: true})
	if err != nil || !res.Converged {
		out.Converged = false
		out.Severity = out.LostMW + out.ReserveDeficitMW + 50
		return out, nil
	}
	scoreGenOutage(out, res, post, opts)
	out.QLimitsRelaxed = relaxed
	return out, nil
}

// solveOrRelax is the network reference for Worker.SolveOrFallback:
// Newton at opts, then Newton from post's stored profile with the Q
// limits relaxed, which relaxed reports.
func solveOrRelax(post *model.Network, opts powerflow.Options) (res *powerflow.Result, relaxed bool, err error) {
	res, err = powerflow.Solve(post, opts)
	if err == nil && res.Converged {
		return res, false, nil
	}
	res, err = powerflow.Solve(post, powerflow.Options{})
	return res, err == nil && res.Converged, err
}

// estimateLoadShed is the network reference for Worker.ShedToSolve: the
// same bisection of a uniform demand and dispatch scaling, over one trial
// network rescaled in place from post each step.
func estimateLoadShed(post *model.Network) float64 {
	loadP, _ := post.TotalLoad()
	trial := &model.Network{
		Name:     post.Name,
		BaseMVA:  post.BaseMVA,
		Buses:    post.Buses,
		Branches: post.Branches,
		Loads:    make([]model.Load, len(post.Loads)),
		Gens:     make([]model.Generator, len(post.Gens)),
	}
	lo, hi := 0.0, 1.0 // feasible scale in [lo, hi): lo solvable fraction
	for iter := 0; iter < 5; iter++ {
		mid := (lo + hi) / 2
		scaleDemand(trial, post, mid)
		res, err := powerflow.Solve(trial, powerflow.Options{FlatStart: true})
		if err == nil && res.Converged {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (1 - lo) * loadP
}

// scaleDemand writes post's loads and generator dispatches scaled by f
// into trial's preallocated slices.
func scaleDemand(trial, post *model.Network, f float64) {
	for i, l := range post.Loads {
		l.P *= f
		l.Q *= f
		trial.Loads[i] = l
	}
	for i, g := range post.Gens {
		g.P *= f
		trial.Gens[i] = g
	}
}

// filledOptions returns the zero Options with every default filled in, as
// the references expect.
func filledOptions() Options {
	var opts Options
	opts.fill()
	return opts
}
