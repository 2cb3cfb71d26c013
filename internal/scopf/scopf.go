// Package scopf implements a preventive security-constrained optimal
// power flow on top of the ACOPF and contingency engines: the iterative
// constraint-tightening scheme used in practice when a full
// contingency-coupled formulation (Wu & Conejo's SC-ACOPF, the paper's
// reference [29]) is too large. Each round solves an ACOPF, evaluates N-1
// security at the solved operating point, and tightens the base-case
// ratings of post-contingency-overloaded branches until the dispatch is
// secure or the round budget is exhausted.
//
// It powers the paper's §B.4 "comparative studies (economic vs
// security-constrained operation)" workflow.
package scopf

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/opf"
	"gridmind/internal/powerflow"
)

// The tightening constants of the SCOPF loop.
const (
	// securityLimitPct is the post-contingency loading treated as a
	// violation.
	securityLimitPct = 100.0
	// damping ∈ (0, 1] controls how aggressively ratings tighten toward
	// the violation ratio each round.
	damping = 0.7
	// minRateFraction floors tightened ratings at this fraction of the
	// original rating, protecting feasibility.
	minRateFraction = 0.3
)

// Options tunes the SCOPF loop. The zero value is usable.
type Options struct {
	// MaxRounds bounds tighten-and-resolve iterations (default 6).
	MaxRounds int
	// Context is the interior-point solver context every ACOPF of the
	// study runs on. If nil, Solve installs a fresh one, so every ACOPF
	// after the first — tightening rounds, backoff retries, the basin
	// re-anchor — reuses the compiled KKT pattern and LDLᵀ symbolic
	// analysis (rating changes leave the problem structure untouched).
	Context *opf.Context
	// Screen enables linear contingency screening inside each round.
	Screen bool
	// Workers bounds the contingency-sweep worker pool inside each round
	// (0 = one per CPU). Benchmarks pin it to 1 for machine-independent
	// allocation counts.
	Workers int
}

func (o *Options) fill() {
	if o.MaxRounds == 0 {
		o.MaxRounds = 6
	}
}

// Result is a solved SCOPF with its security accounting.
type Result struct {
	// Solution is the final (secure or best-effort) dispatch, with flows
	// and loadings evaluated against the ORIGINAL ratings.
	Solution *opf.Solution `json:"solution"`
	// EconomicCost is the unconstrained ACOPF cost for comparison.
	EconomicCost float64 `json:"economic_cost"`
	// SecurityPremium = secure cost − economic cost ($/h).
	SecurityPremium float64 `json:"security_premium"`
	// Rounds actually used.
	Rounds int `json:"rounds"`
	// Secure reports whether the final dispatch has no post-contingency
	// thermal violations (islanding-driven shed is excluded: no
	// redispatch can fix a disconnection).
	Secure bool `json:"secure"`
	// WorstPostContingencyPct before and after.
	WorstBeforePct float64 `json:"worst_before_pct"`
	WorstAfterPct  float64 `json:"worst_after_pct"`
	// ViolationsBefore/After count distinct post-contingency overload
	// events. Some violations are load-driven (an outage forces a load
	// pocket through one corridor) and cannot be fixed by preventive
	// redispatch; the count captures partial progress on the rest.
	ViolationsBefore int `json:"violations_before"`
	ViolationsAfter  int `json:"violations_after"`
	// TightenedBranches lists branch indices whose ratings were reduced.
	TightenedBranches []int `json:"tightened_branches"`
}

// ErrBaseInsecure reports a base case that violates its own limits, which
// preventive redispatch alone cannot secure.
var ErrBaseInsecure = errors.New("scopf: base case violates its own ratings")

// Solve runs the preventive SCOPF loop.
func Solve(n *model.Network, opts Options) (*Result, error) {
	res, _, err := solve(n, opts)
	return res, err
}

// solve is Solve that also hands back the economic ACOPF solution whose
// cost it reports as EconomicCost: the cold solve, or its re-anchor from
// the secure point when that found a cheaper basin.
func solve(n *model.Network, opts Options) (*Result, *opf.Solution, error) {
	opts.fill()
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	if opts.Context == nil {
		// One solver context for the whole loop: every round's re-solve has
		// the same topology (only ratings/start change), so the compiled
		// KKT pattern and symbolic analysis carry through all of them.
		opts.Context = opf.NewContext()
	}

	econ, err := opf.SolveACOPF(n, opf.Options{Context: opts.Context})
	if err != nil {
		return nil, nil, fmt.Errorf("scopf: economic ACOPF: %w", err)
	}
	res := &Result{EconomicCost: econ.ObjectiveCost}

	work := n.Clone()
	tightened := map[int]bool{}
	var sol *opf.Solution = econ
	for round := 1; round <= opts.MaxRounds; round++ {
		res.Rounds = round
		worst, viols, err := postContingencyViolations(n, sol, opts)
		if err != nil {
			return nil, nil, err
		}
		if round == 1 {
			res.WorstBeforePct = worst
			res.ViolationsBefore = len(viols)
		}
		res.WorstAfterPct = worst
		res.ViolationsAfter = len(viols)
		if len(viols) == 0 {
			res.Secure = true
			break
		}
		// Tighten ratings. Both sides of each violation participate: the
		// overloaded branch (reduce its pre-contingency loading) and the
		// tripped branch (reduce the flow that shifts onto others when it
		// goes out) — the latter is what actually relieves violations on
		// lightly-loaded branches that receive diverted flow.
		tighten := func(b int, factor float64) {
			newRate := work.Branches[b].RateMVA * factor
			if floor := n.Branches[b].RateMVA * minRateFraction; newRate < floor {
				newRate = floor
			}
			if newRate < work.Branches[b].RateMVA {
				work.Branches[b].RateMVA = newRate
				tightened[b] = true
			}
		}
		prevRates := make([]float64, len(work.Branches))
		for b := range work.Branches {
			prevRates[b] = work.Branches[b].RateMVA
		}
		// Gentle steps keep the tightened problem feasible: only the
		// worst violations participate each round, and no rating drops
		// more than 20% per round.
		sortViolations(viols)
		if len(viols) > 20 {
			viols = viols[:20]
		}
		for _, v := range viols {
			factor := math.Pow(securityLimitPct/v.LoadingPct, damping)
			if factor < 0.8 {
				factor = 0.8
			}
			tighten(v.Branch, factor)
			tighten(v.Outage, factor)
		}
		// Load-driven violations can make the tightened problem
		// infeasible (the flow physically must traverse the corridor).
		// Back the tightening off halfway until the OPF is feasible
		// again; if even the previous rates fail, keep the last point.
		var next *opf.Solution
		for backoff := 0; backoff < 3; backoff++ {
			next, err = opf.SolveACOPF(work, opf.Options{Start: sol, Context: opts.Context})
			if err == nil {
				break
			}
			for b := range work.Branches {
				work.Branches[b].RateMVA = (work.Branches[b].RateMVA + prevRates[b]) / 2
			}
		}
		if err != nil {
			copyRates(work, prevRates)
			break
		}
		sol = next
	}
	if !res.Secure {
		// Evaluate the final round's violations for honest reporting.
		worst, viols, verr := postContingencyViolations(n, sol, opts)
		if verr == nil {
			res.WorstAfterPct = worst
			res.ViolationsAfter = len(viols)
			res.Secure = len(viols) == 0
		}
	}

	for b := range tightened {
		res.TightenedBranches = append(res.TightenedBranches, b)
	}
	slices.Sort(res.TightenedBranches)

	// Re-evaluate the final solution against the ORIGINAL ratings so the
	// reported loadings are meaningful to the user.
	res.Solution = reevaluate(n, sol)

	// ACOPF is nonconvex: the tightened problem can land in a better
	// basin than the first economic solve. Anchor the economic baseline
	// by re-solving warm-started from the secure point, so the reported
	// premium is a true within-basin comparison.
	if res.Solution.ObjectiveCost < res.EconomicCost {
		if econ2, err := opf.SolveACOPF(n, opf.Options{Start: sol, Context: opts.Context}); err == nil && econ2.ObjectiveCost < res.EconomicCost {
			econ, res.EconomicCost = econ2, econ2.ObjectiveCost
		}
	}
	res.SecurityPremium = res.Solution.ObjectiveCost - res.EconomicCost
	return res, econ, nil
}

// violation is one post-contingency overload: tripping Outage loads
// Branch to LoadingPct.
type violation struct {
	Outage, Branch int
	LoadingPct     float64
}

// postContingencyViolations applies the dispatch to the original network,
// runs N-1, and returns the worst post-contingency loading plus the
// violation list, excluding islanding events (no preventive redispatch
// can fix a disconnection).
func postContingencyViolations(n *model.Network, sol *opf.Solution, opts Options) (float64, []violation, error) {
	state := applyDispatch(n, sol)
	base, err := powerflow.Solve(state, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		return 0, nil, fmt.Errorf("scopf: base power flow at dispatch: %w", err)
	}
	rs, err := contingency.Analyze(state, base, contingency.Options{
		DCScreen: opts.Screen,
		Workers:  opts.Workers,
	})
	if err != nil {
		return 0, nil, err
	}
	worst := 0.0
	var viols []violation
	for i := range rs.Outages {
		o := &rs.Outages[i]
		if o.Islanded || !o.Converged {
			continue
		}
		if o.MaxLoadingPct > worst {
			worst = o.MaxLoadingPct
		}
		for _, ov := range o.Overloads {
			if ov.LoadingPct > securityLimitPct {
				viols = append(viols, violation{Outage: o.Branch, Branch: ov.Branch, LoadingPct: ov.LoadingPct})
			}
		}
	}
	return worst, viols, nil
}

// applyDispatch pins the OPF dispatch and voltage plan onto a copy of the
// original network so security is evaluated at that operating point.
func applyDispatch(n *model.Network, sol *opf.Solution) *model.Network {
	state := n.Clone()
	for g := range state.Gens {
		if !state.Gens[g].InService {
			continue
		}
		state.Gens[g].P = sol.GenP[g]
		if len(sol.Voltages.Vm) == len(state.Buses) {
			state.Gens[g].VSetpoint = sol.Voltages.Vm[state.Gens[g].Bus]
		}
	}
	if len(sol.Voltages.Vm) == len(state.Buses) {
		for i := range state.Buses {
			state.Buses[i].Vm = sol.Voltages.Vm[i]
			state.Buses[i].Va = sol.Voltages.Va[i]
		}
	}
	return state
}

// reevaluate recomputes flows/loadings of the dispatch against the
// original ratings via a power flow at the solved operating point.
func reevaluate(n *model.Network, sol *opf.Solution) *opf.Solution {
	state := applyDispatch(n, sol)
	res, err := powerflow.Solve(state, powerflow.Options{EnforceQLimits: true})
	out := *sol
	if err == nil && res.Converged {
		out.Flows = res.Flows
		out.MaxThermalLoading = 0
		for _, f := range res.Flows {
			if f.LoadingPct > out.MaxThermalLoading {
				out.MaxThermalLoading = f.LoadingPct
			}
		}
		out.LossMW = res.LossP
		out.MinVoltagePU, out.MaxVoltagePU = res.MinVm, res.MaxVm
	}
	return &out
}

// Comparison is the structured outcome of the economic-vs-secure study.
type Comparison struct {
	Economic *opf.Solution `json:"economic"`
	Secure   *Result       `json:"secure"`
	// PremiumPct is the security premium as a percentage of the economic
	// cost.
	PremiumPct float64 `json:"premium_pct"`
}

// Compare runs both operating strategies on the same case. The economic
// side is the solution Solve priced the premium against, basin re-anchor
// included, so Compare runs no ACOPF of its own.
func Compare(n *model.Network, opts Options) (*Comparison, error) {
	sec, econ, err := solve(n, opts)
	if err != nil {
		return nil, err
	}
	c := &Comparison{Economic: econ, Secure: sec}
	if econ.ObjectiveCost > 0 {
		c.PremiumPct = 100 * (sec.Solution.ObjectiveCost - econ.ObjectiveCost) / econ.ObjectiveCost
	}
	return c, nil
}

// sortViolations orders by loading severity, worst first, then by outage
// and branch, deterministic.
func sortViolations(v []violation) {
	slices.SortStableFunc(v, func(a, b violation) int {
		return cmp.Or(
			cmp.Compare(b.LoadingPct, a.LoadingPct),
			cmp.Compare(a.Outage, b.Outage),
			cmp.Compare(a.Branch, b.Branch))
	})
}

func copyRates(n *model.Network, rates []float64) {
	for b := range n.Branches {
		n.Branches[b].RateMVA = rates[b]
	}
}
