package opf

import (
	"fmt"
	"math"

	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// Method names recorded in solution provenance.
const (
	MethodIPM      = "primal-dual-interior-point"
	MethodDispatch = "economic-dispatch+power-flow"
	MethodDCOPF    = "dc-optimal-power-flow"
)

// Options configures SolveACOPF. The zero value solves cold, with the
// interior point's fixed tolerances (1e-6) and iteration cap (150).
type Options struct {
	// Start, when non-nil, warm-starts the solver from a previous
	// solution's operating point (voltages and dispatch). ACOPF is
	// nonconvex; warm-starting anchors comparative studies in one basin.
	// When Start also carries Multipliers sized for this network, the
	// interior point seeds its dual point from them too; if that solve
	// does not converge within 20 iterates, it is re-run from Start's
	// operating point alone and the ConvergenceMessage opens with
	// WarmStartFallback. Start is only read.
	Start *Solution
	// Context, when non-nil, caches the compiled problem (Ybus, layout,
	// bound rows), its KKT pattern and LDLᵀ symbolic analysis across
	// solves of the same network structure (load, cost, limit or rating
	// value changes, warm starts): what-ifs, SCOPF tightening rounds and
	// sensitivity re-solves reuse one Context so every solve after the
	// first compiles nothing. Not safe for concurrent use. See Context.
	Context *Context
}

// Solution is the paper's ACOPFSolution data model (Appendix C): every
// numeric the agents narrate is a field here, so replies stay auditable.
type Solution struct {
	CaseName   string `json:"case_name"`
	Solved     bool   `json:"solved"`
	Method     string `json:"method"`
	Iterations int    `json:"iterations"`
	// ObjectiveCost is total generation cost in $/h.
	ObjectiveCost float64 `json:"objective_cost"`
	// GenP/GenQ are per-generator dispatch in MW / MVAr, indexed like
	// Network.Gens (zero for out-of-service units).
	GenP []float64 `json:"gen_p_mw"`
	GenQ []float64 `json:"gen_q_mvar"`
	// Voltages is the solved bus voltage profile.
	Voltages powerflow.VoltageProfile `json:"voltages"`
	// Flows has one entry per branch with loadings against ratings.
	Flows []powerflow.BranchFlow `json:"flows"`
	// LMP is the locational marginal price in $/MWh per bus (the active
	// power balance multipliers).
	LMP []float64 `json:"lmp_usd_per_mwh"`
	// Aggregates the agents cite directly.
	MinVoltagePU      float64 `json:"min_voltage_pu"`
	MaxVoltagePU      float64 `json:"max_voltage_pu"`
	MaxThermalLoading float64 `json:"max_thermal_loading_pct"`
	LossMW            float64 `json:"loss_mw"`
	// MaxMismatchPU is the residual nodal power balance error (p.u.),
	// the paper's 1e-4 validation threshold applies to this field.
	MaxMismatchPU float64 `json:"max_mismatch_pu"`
	// BindingFlowLimits counts branch-end MVA constraints at their limit.
	BindingFlowLimits  int    `json:"binding_flow_limits"`
	ConvergenceMessage string `json:"convergence_message"`
	// Multipliers is the interior point's final dual point, set on a
	// converged SolveACOPF only: what Options.Start needs to warm-start
	// the dual point of the next solve, kept through a session spill.
	Multipliers *Multipliers `json:"multipliers,omitempty"`
}

// Multipliers is one interior-point dual point, in the solver's scaled
// units (λ and μ carry costScale): Lam holds the equality multipliers
// (the 2·nb balance rows, then the slack-angle pin), Mu and Z the
// multipliers and slacks of the inequality rows (two per rated branch,
// then the variable bounds).
type Multipliers struct {
	Lam []float64 `json:"lam"`
	Mu  []float64 `json:"mu"`
	Z   []float64 `json:"z"`
}

// WarmStartFallback opens the ConvergenceMessage of a solve whose
// warm-started dual point did not converge and that was re-run from
// Options.Start's operating point alone.
const WarmStartFallback = "warm start fell back"

// TotalGenMW sums the active dispatch.
func (s *Solution) TotalGenMW() float64 {
	var t float64
	for _, p := range s.GenP {
		t += p
	}
	return t
}

// foldFlowStats derives the thermal aggregates from the per-branch flow
// records: the worst loading and the count of branch limits at their
// binding threshold. Every solver (AC, DC, dispatch fallback) folds its
// Flows through this one loop so the aggregation rule cannot drift.
func (s *Solution) foldFlowStats() {
	for _, f := range s.Flows {
		if f.LoadingPct > s.MaxThermalLoading {
			s.MaxThermalLoading = f.LoadingPct
		}
		if f.LoadingPct > 99.5 {
			s.BindingFlowLimits++
		}
	}
}

// SolveACOPF solves the AC optimal power flow with the primal-dual
// interior-point method. On non-convergence it returns the best iterate's
// diagnostics in a Solution with Solved=false together with the error.
func SolveACOPF(n *model.Network, opts Options) (*Solution, error) {
	return solveACOPF(n, opts, ipmOptions{})
}

// solveACOPF is SolveACOPF under explicit interior-point options; the
// exported entry point passes the zero value, the defaults.
func solveACOPF(n *model.Network, opts Options, iopts ipmOptions) (*Solution, error) {
	// Every problem is compiled through a Context: a throwaway one, which
	// records no compile key, when the caller keeps none.
	ctx := opts.Context
	if ctx == nil {
		ctx = new(Context)
	}
	prob, kkt, err := ctx.problem(n, opts.Context != nil)
	if err != nil {
		return nil, err
	}
	if iopts.kkt == nil { // an instrumented solver set by a test wins
		iopts.kkt = kkt
	}
	x0, duals := prob.initialPoint(opts.Start)
	p := &nlp{
		nx:    prob.nx(),
		ng:    prob.ngEq(),
		nh:    prob.nIneq(),
		x0:    x0,
		eval:  prob.eval,
		hess:  prob.hessian,
		order: prob.kktOrder,
		duals: duals,
	}
	first := iopts
	if duals != nil {
		first.MaxIter = warmMaxIter
	}
	res, ipmErr := solveIPM(p, first)
	if ipmErr != nil && duals != nil {
		// The warm dual seed did not converge: re-run from Start's
		// operating point alone, as a Start without multipliers solves.
		warm := res
		p.duals = nil
		res, ipmErr = solveIPM(p, iopts)
		res.Message = fmt.Sprintf("%s after %d iterates (%s); %s",
			WarmStartFallback, warm.Iterations, warm.Message, res.Message)
	}
	sol := extractSolution(prob, res)
	prob.net = nil // a kept problem holds no caller network between solves
	if ipmErr != nil {
		return sol, fmt.Errorf("opf: %s: %w", n.Name, ipmErr)
	}
	return sol, nil
}

// extractSolution converts the raw IPM state into the domain solution.
func extractSolution(a *acopf, res *ipmResult) *Solution {
	n := a.net
	nb, base := a.nb, a.base
	sol := &Solution{
		CaseName:           n.Name,
		Solved:             res.Converged,
		Method:             MethodIPM,
		Iterations:         res.Iterations,
		ObjectiveCost:      res.F / costScale,
		ConvergenceMessage: res.Message,
		GenP:               make([]float64, len(n.Gens)),
		GenQ:               make([]float64, len(n.Gens)),
		LMP:                make([]float64, nb),
	}
	if res.X == nil {
		return sol
	}
	if res.Converged {
		sol.Multipliers = &Multipliers{Lam: res.Lam, Mu: res.Mu, Z: res.Z}
	}
	vm := append([]float64(nil), res.X[nb:2*nb]...)
	va := append([]float64(nil), res.X[:nb]...)
	sol.Voltages = powerflow.VoltageProfile{Vm: vm, Va: va}
	for p, gi := range a.gens {
		sol.GenP[gi] = res.X[a.ixPg(p)] * base
		sol.GenQ[gi] = res.X[a.ixQg(p)] * base
	}
	for i := 0; i < nb; i++ {
		// With g_i = P_i(V) − Pg_i + Pd_i, the multiplier equals the
		// marginal cost of serving load at bus i: λ is costScale·$/h per
		// p.u., so divide by base·costScale for $/MWh.
		sol.LMP[i] = res.Lam[i] / (base * costScale)
	}

	v := model.VoltageVector(vm, va)
	sol.MinVoltagePU, sol.MaxVoltagePU = math.Inf(1), math.Inf(-1)
	for i := range n.Buses {
		sol.MinVoltagePU = math.Min(sol.MinVoltagePU, vm[i])
		sol.MaxVoltagePU = math.Max(sol.MaxVoltagePU, vm[i])
	}
	// Batched flow tail: one kernel pass into per-end scratch, then the
	// shared record conversion — the same code path powerflow result
	// assembly uses, so loading/loss math lives in exactly one place.
	nbr := len(n.Branches)
	sf := make([]complex128, nbr)
	st := make([]complex128, nbr)
	a.y.BranchFlowsInto(n, v, sf, st)
	sol.Flows = make([]powerflow.BranchFlow, nbr)
	sol.LossMW = powerflow.FillBranchFlows(n, sol.Flows, sf, st)
	sol.foldFlowStats()

	// Residual power balance at the solution (the validation quantity),
	// against the per-bus demand the last eval accumulated.
	s := a.y.Injections(v)
	loadP, loadQ := a.es.loadP, a.es.loadQ
	var maxMis float64
	for i := 0; i < nb; i++ {
		genP, genQ := 0.0, 0.0
		for _, p := range a.genOf[i] {
			genP += res.X[a.ixPg(p)]
			genQ += res.X[a.ixQg(p)]
		}
		mp := math.Abs(real(s[i]) + loadP[i]/base - genP)
		mq := math.Abs(imag(s[i]) + loadQ[i]/base - genQ)
		maxMis = math.Max(maxMis, math.Max(mp, mq))
	}
	sol.MaxMismatchPU = maxMis
	return sol
}

// Quality is the paper's SolutionQuality schema: component scores on a
// 0-10 scale with derived recommendations.
type Quality struct {
	OverallScore           float64            `json:"overall_score"`
	ConvergenceQuality     float64            `json:"convergence_quality"`
	ConstraintSatisfaction float64            `json:"constraint_satisfaction"`
	EconomicEfficiency     float64            `json:"economic_efficiency"`
	SystemSecurity         float64            `json:"system_security"`
	DetailedMetrics        map[string]float64 `json:"detailed_metrics"`
	Recommendations        []string           `json:"recommendations"`
}

// AssessQuality scores a solution the way the paper's agents summarize
// solution health for the user.
func AssessQuality(n *model.Network, sol *Solution) Quality {
	q := Quality{DetailedMetrics: map[string]float64{}}
	if !sol.Solved {
		q.Recommendations = append(q.Recommendations,
			"solution did not converge; use the economic-dispatch fallback")
		return q
	}
	// Convergence: scaled by how far the residual sits under the 1e-4
	// p.u. validation threshold.
	q.ConvergenceQuality = 10 * clamp01(1-sol.MaxMismatchPU/1e-4)
	q.DetailedMetrics["max_mismatch_pu"] = sol.MaxMismatchPU

	// Constraints: voltage band and thermal loading margins.
	vScore := 1.0
	for i, b := range n.Buses {
		vm := sol.Voltages.Vm[i]
		if vm < b.VMin-1e-6 || vm > b.VMax+1e-6 {
			vScore = 0
			break
		}
	}
	tScore := clamp01((110 - sol.MaxThermalLoading) / 20)
	if sol.MaxThermalLoading == 0 {
		tScore = 1
	}
	q.ConstraintSatisfaction = 10 * (0.5*vScore + 0.5*tScore)
	q.DetailedMetrics["max_thermal_loading_pct"] = sol.MaxThermalLoading

	// Economics: loss fraction as the efficiency proxy.
	totalLoad, _ := n.TotalLoad()
	lossFrac := 0.0
	if totalLoad > 0 {
		lossFrac = sol.LossMW / totalLoad
	}
	q.EconomicEfficiency = 10 * clamp01(1-lossFrac/0.1)
	q.DetailedMetrics["loss_fraction"] = lossFrac

	// Security: voltage headroom to the band edges — each bus's own
	// VMin/VMax, not a hardcoded nominal band, so cases with wider (or
	// asymmetric) limits are scored against the limits that actually bind.
	// (The constraint loop above already requires Vm aligned with Buses.)
	headroom := math.Inf(1)
	for i, b := range n.Buses {
		vm := sol.Voltages.Vm[i]
		headroom = math.Min(headroom, math.Min(vm-b.VMin, b.VMax-vm))
	}
	if math.IsInf(headroom, 1) {
		headroom = 0
	}
	q.SystemSecurity = 10 * clamp01(0.5+headroom/0.04)
	q.DetailedMetrics["voltage_headroom_pu"] = headroom

	q.OverallScore = (q.ConvergenceQuality + q.ConstraintSatisfaction +
		q.EconomicEfficiency + q.SystemSecurity) / 4

	if sol.BindingFlowLimits > 0 {
		q.Recommendations = append(q.Recommendations, fmt.Sprintf(
			"%d branch limits are binding; consider transmission reinforcement", sol.BindingFlowLimits))
	}
	if headroom < 0.01 {
		q.Recommendations = append(q.Recommendations,
			"voltage profile is close to its limits; add reactive support")
	}
	if len(q.Recommendations) == 0 {
		q.Recommendations = append(q.Recommendations, "solution is healthy; no action required")
	}
	return q
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
