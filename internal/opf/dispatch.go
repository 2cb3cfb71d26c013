package opf

import (
	"fmt"
	"math"
	"time"

	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// SolveDispatch runs the agents' fallback solver: classic equal-marginal-
// cost economic dispatch (lambda iteration with generator limits) followed
// by an AC power flow to pick up losses and produce a physical operating
// point. It trades optimality for robustness — there is no voltage or
// flow optimization — which is exactly the recovery behaviour the paper
// describes when the primary solver fails validation.
func SolveDispatch(n *model.Network, pfOpts powerflow.Options) (*Solution, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	work := n.Clone()
	var gens []int
	for gi, g := range work.Gens {
		if g.InService {
			gens = append(gens, gi)
		}
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("opf: %s has no in-service generators", n.Name)
	}
	loadP, _ := work.TotalLoad()

	var res *powerflow.Result
	losses := 0.0
	var err error
	// Loss-iteration: dispatch to demand + current loss estimate, solve
	// the power flow, update losses.
	for round := 0; round < 6; round++ {
		target := loadP + losses
		dispatch, derr := economicDispatch(work, gens, target)
		if derr != nil {
			return nil, derr
		}
		for i, gi := range gens {
			work.Gens[gi].P = dispatch[i]
		}
		res, err = powerflow.Solve(work, pfOpts)
		if err != nil {
			return nil, fmt.Errorf("opf: dispatch fallback power flow: %w", err)
		}
		if math.Abs(res.LossP-losses) < 1e-3 {
			break
		}
		losses = res.LossP
	}

	sol := &Solution{
		CaseName:   n.Name,
		Solved:     res.Converged,
		Method:     MethodDispatch,
		Iterations: res.Iterations,
		GenP:       append([]float64(nil), res.GenP...),
		GenQ:       append([]float64(nil), res.GenQ...),
		Voltages:   *res.Voltages.Clone(),
		// One-shot Solve results own their flow records (fresh scratch per
		// call), so the solution takes the slice instead of copying it.
		Flows:        res.Flows,
		LMP:          make([]float64, len(n.Buses)),
		LossMW:       res.LossP,
		MinVoltagePU: res.MinVm,
		MaxVoltagePU: res.MaxVm,
		ConvergenceMessage: fmt.Sprintf("economic dispatch + %v power flow in %d iterations",
			res.Algorithm, res.Iterations),
		SolvedAt: time.Now().UTC(),
	}
	sol.foldFlowStats()
	for g, gi := range work.Gens {
		if gi.InService {
			sol.ObjectiveCost += gi.Cost.At(sol.GenP[g])
		}
	}
	// System lambda approximates a uniform price.
	lambda := systemLambda(work, gens, loadP+res.LossP)
	for i := range sol.LMP {
		sol.LMP[i] = lambda
	}
	sol.MaxMismatchPU = res.MaxMismatch
	return sol, nil
}

// economicDispatch allocates target MW across units at equal marginal
// cost, respecting P limits, via bisection on lambda.
func economicDispatch(n *model.Network, gens []int, target float64) ([]float64, error) {
	var pmin, pmax float64
	for _, gi := range gens {
		pmin += n.Gens[gi].PMin
		pmax += n.Gens[gi].PMax
	}
	if target < pmin-1e-9 || target > pmax+1e-9 {
		return nil, fmt.Errorf("opf: dispatch target %.1f MW outside fleet range [%.1f, %.1f]",
			target, pmin, pmax)
	}
	atLambda := func(lambda float64) ([]float64, float64) {
		out := make([]float64, len(gens))
		var sum float64
		for i, gi := range gens {
			g := n.Gens[gi]
			var p float64
			if g.Cost.C2 > 1e-12 {
				p = (lambda - g.Cost.C1) / (2 * g.Cost.C2)
			} else if lambda >= g.Cost.C1 {
				p = g.PMax
			} else {
				p = g.PMin
			}
			p = math.Max(g.PMin, math.Min(g.PMax, p))
			out[i] = p
			sum += p
		}
		return out, sum
	}
	lo, hi := -1e4, 1e6
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		_, sum := atLambda(mid)
		if sum < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	out, sum := atLambda(hi)
	// Distribute any residual (from flat-cost units) over free units.
	resid := target - sum
	for i, gi := range gens {
		if math.Abs(resid) < 1e-9 {
			break
		}
		g := n.Gens[gi]
		room := g.PMax - out[i]
		if resid < 0 {
			room = g.PMin - out[i]
		}
		adj := resid
		if math.Abs(adj) > math.Abs(room) {
			adj = room
		}
		out[i] += adj
		resid -= adj
	}
	return out, nil
}

// systemLambda returns the marginal cost of the last dispatched MW.
func systemLambda(n *model.Network, gens []int, target float64) float64 {
	dispatch, err := economicDispatch(n, gens, target)
	if err != nil {
		return 0
	}
	lambda := 0.0
	for i, gi := range gens {
		g := n.Gens[gi]
		// Marginal units (strictly inside limits) set the price.
		if dispatch[i] > g.PMin+1e-6 && dispatch[i] < g.PMax-1e-6 {
			if m := g.Cost.Marginal(dispatch[i]); m > lambda {
				lambda = m
			}
		}
	}
	return lambda
}
