package tools

import (
	"fmt"
	"math"
	"strings"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/model"
	"gridmind/internal/opf"
	"gridmind/internal/powerflow"
	"gridmind/internal/schema"
	"gridmind/internal/session"
)

// GridMind tool names (Appendix B.3).
const (
	ToolSolveACOPF    = "solve_acopf_case"
	ToolModifyBusLoad = "modify_bus_load"
	ToolNetworkStatus = "get_network_status"
	ToolSolveBaseCase = "solve_base_case"
	ToolRunN1         = "run_n1_contingency_analysis"
	ToolAnalyzeOutage = "analyze_specific_contingency"
	ToolContStatus    = "get_contingency_status"
)

// ACOPFToolNames lists the ACOPF agent's toolbox (Appendix B.3.1).
func ACOPFToolNames() []string {
	return []string{ToolSolveACOPF, ToolModifyBusLoad, ToolNetworkStatus}
}

// CAToolNames lists the contingency agent's toolbox (Appendix B.3.2).
func CAToolNames() []string {
	return []string{ToolSolveBaseCase, ToolRunN1, ToolAnalyzeOutage, ToolContStatus}
}

// NewGridMind builds the full registry bound to a session context and a
// shared artifact engine.
func NewGridMind(ctx *session.Context, eng *engine.Engine) *Registry {
	r := NewRegistry()
	mustRegister := func(t *Tool) {
		if err := r.Register(t); err != nil {
			panic(err) // registration is static; failure is a programming error
		}
	}
	mustRegister(solveACOPFTool(ctx, eng))
	mustRegister(modifyBusLoadTool(ctx, eng))
	mustRegister(networkStatusTool(ctx))
	mustRegister(solveBaseCaseTool(ctx, eng))
	mustRegister(runN1Tool(ctx, eng))
	mustRegister(analyzeOutageTool(ctx, eng))
	mustRegister(contStatusTool(ctx))
	return r
}

// sharedOpts assembles contingency Options for the session's state: its
// outage cache and the engine's state-keyed sweep pool, which carries the
// structure's shared artifacts.
func sharedOpts(ctx *session.Context, eng *engine.Engine) contingency.Options {
	return contingency.Options{
		Cache: ctx.ContCache(), CacheKeyPrefix: ctx.DiffHash(),
		Pool: eng.SweepPool(ctx.DiffHash()), Metrics: eng.Metrics(),
	}
}

// solutionSummary condenses an opf.Solution into the structured record
// agents narrate from. Every numeric an agent may cite appears here.
func solutionSummary(sol *opf.Solution, recovered bool) map[string]any {
	lmpMin, lmpMax := math.Inf(1), math.Inf(-1)
	for _, l := range sol.LMP {
		lmpMin = math.Min(lmpMin, l)
		lmpMax = math.Max(lmpMax, l)
	}
	if len(sol.LMP) == 0 {
		lmpMin, lmpMax = 0, 0
	}
	return map[string]any{
		"case_name":               sol.CaseName,
		"solved":                  sol.Solved,
		"method":                  sol.Method,
		"iterations":              sol.Iterations,
		"objective_cost":          round2(sol.ObjectiveCost),
		"total_gen_mw":            round2(sol.TotalGenMW()),
		"loss_mw":                 round2(sol.LossMW),
		"min_voltage_pu":          round4(sol.MinVoltagePU),
		"max_voltage_pu":          round4(sol.MaxVoltagePU),
		"max_thermal_loading_pct": round2(sol.MaxThermalLoading),
		"binding_flow_limits":     sol.BindingFlowLimits,
		"max_mismatch_pu":         sol.MaxMismatchPU,
		"lmp_min":                 round2(lmpMin),
		"lmp_max":                 round2(lmpMax),
		"recovery_used":           recovered,
		"convergence_message":     sol.ConvergenceMessage,
	}
}

var solutionOutputSchema = schema.Obj("ACOPF solution summary", map[string]*schema.Schema{
	"case_name":               schema.Str("case identifier"),
	"solved":                  schema.Bool("true when converged and validated"),
	"method":                  schema.Str("solver that produced the point"),
	"iterations":              schema.Int("solver iterations"),
	"objective_cost":          schema.Num("total generation cost $/h"),
	"total_gen_mw":            schema.Num("total dispatch MW"),
	"loss_mw":                 schema.Num("network losses MW"),
	"min_voltage_pu":          schema.Num("lowest bus voltage"),
	"max_voltage_pu":          schema.Num("highest bus voltage"),
	"max_thermal_loading_pct": schema.Num("worst branch loading %"),
	"binding_flow_limits":     schema.Int("branch limits at their bound"),
	"max_mismatch_pu":         schema.Num("residual power balance error"),
	"lmp_min":                 schema.Num("lowest locational marginal price $/MWh"),
	"lmp_max":                 schema.Num("highest locational marginal price $/MWh"),
	"recovery_used":           schema.Bool("true when a fallback solver produced the point"),
	"convergence_message":     schema.Str("solver diagnostics"),
}, "case_name", "solved", "objective_cost", "max_mismatch_pu").WithExtra()

// solveWithRecovery is the §3.2.1 automatic recovery path: one
// interior-point solve, then the economic-dispatch + power-flow fallback.
// The interior-point solver context (compiled KKT pattern + LDLᵀ symbolic
// analysis) is checked out of the structure's shared pool, so every
// session's solve after the process's first skips pattern compilation.
// start, when non-nil, warm-starts the solve (opf.Options.Start); a warm
// start that fell back to the primal-only start is recorded in the
// session's provenance. A cold solve (start nil) depends on the state
// alone, so it runs once per state across sessions in engine.ColdACOPF;
// a hit notes the recovery a miss notes. internal/opf/README.md
// ("Recovery ladder") says why no relaxed-tolerance re-solve sits between
// the two.
func solveWithRecovery(ctx *session.Context, eng *engine.Engine, start *opf.Solution) (*opf.Solution, bool, error) {
	n, err := ctx.Network()
	if err != nil {
		return nil, false, err
	}
	ladder := func(n *model.Network) (*opf.Solution, bool, error) {
		sig := eng.Artifacts(n).Sig
		kkt := eng.AcquireOPF(sig)
		defer eng.ReleaseOPF(sig, kkt)
		sol, err := opf.SolveACOPF(n, opf.Options{Start: start, Context: kkt})
		if sol != nil && strings.HasPrefix(sol.ConvergenceMessage, opf.WarmStartFallback) {
			ctx.AddProvenance("warm_start", sol.ConvergenceMessage)
		}
		if err == nil && sol.MaxMismatchPU < 1e-4 {
			return sol, false, nil
		}
		sol, err = opf.SolveDispatch(n, powerflow.Options{EnforceQLimits: true})
		if err != nil {
			return nil, true, fmt.Errorf("all solvers failed: %w", err)
		}
		ctx.AddProvenance("recovery", "acopf fell back to "+sol.Method)
		return sol, true, nil
	}
	if start != nil {
		return ladder(n)
	}
	hit := true
	sol, recovered, err := eng.ColdACOPF(ctx.DiffHash(), n, func(n *model.Network) (*opf.Solution, bool, error) {
		hit = false
		return ladder(n)
	})
	if hit && recovered && err == nil {
		ctx.AddProvenance("recovery", "acopf fell back to "+sol.Method)
	}
	return sol, recovered, err
}

func solveACOPFTool(ctx *session.Context, eng *engine.Engine) *Tool {
	return &Tool{
		Name: ToolSolveACOPF,
		Description: "Load an IEEE test case (14, 30, 57, 118 or 300 bus) and solve its AC optimal power flow. " +
			"Returns the validated solution summary with objective cost, dispatch, losses and voltage extrema.",
		Input: schema.Obj("", map[string]*schema.Schema{
			"case_name": schema.Str("case identifier, e.g. 'case118' or 'IEEE 118'"),
		}, "case_name"),
		Output: solutionOutputSchema,
		Fn: func(args map[string]any) (any, error) {
			name, _ := args["case_name"].(string)
			canonical := cases.Canonical(name)
			if canonical == "" {
				return nil, fmt.Errorf("unknown case %q (supported: %s)", name, strings.Join(cases.Names(), ", "))
			}
			if ctx.CaseName() != canonical || ctx.Version() > 0 {
				if _, err := ctx.LoadCase(canonical); err != nil {
					return nil, err
				}
			}
			sol, recovered, err := solveWithRecovery(ctx, eng, nil)
			if err != nil {
				return nil, err
			}
			ctx.SetACOPF(sol)
			return solutionSummary(sol, recovered), nil
		},
	}
}

func modifyBusLoadTool(ctx *session.Context, eng *engine.Engine) *Tool {
	return &Tool{
		Name: ToolModifyBusLoad,
		Description: "Set the load at a bus to the given MW (and optional MVAr) and re-solve the ACOPF, " +
			"warm-started from the session's current solution when it is fresh. " +
			"Returns the new solution summary plus the cost delta against the previous solution.",
		Input: schema.Obj("", map[string]*schema.Schema{
			"bus":    schema.Int("external bus number"),
			"p_mw":   schema.Num("new active demand in MW").WithRange(0, 1e5),
			"q_mvar": schema.Num("new reactive demand in MVAr (optional; defaults to keeping the power factor)"),
		}, "bus", "p_mw"),
		Output: solutionOutputSchema,
		Fn: func(args map[string]any) (any, error) {
			busID := int(args["bus"].(float64))
			pmw := args["p_mw"].(float64)
			n, err := ctx.Network()
			if err != nil {
				return nil, err
			}
			bi := n.BusByID(busID)
			if bi < 0 {
				return nil, fmt.Errorf("bus %d does not exist in %s", busID, n.Name)
			}
			oldP, oldQ := n.BusLoad(bi)
			qmv, hasQ := args["q_mvar"].(float64)
			if !hasQ {
				// Preserve the existing power factor, defaulting to 0.98.
				if oldP > 0 {
					qmv = pmw * oldQ / oldP
				} else {
					qmv = pmw * 0.2
				}
			}
			prev, prevFresh := ctx.ACOPF()
			if err := ctx.Apply(session.Modification{
				Kind: session.ModSetLoad, BusID: busID, PMW: pmw, QMVAr: qmv,
				Note: fmt.Sprintf("bus %d load %.1f→%.1f MW", busID, oldP, pmw),
			}); err != nil {
				return nil, err
			}
			// A fresh interior-point solution of the pre-modification state
			// carries the multipliers the what-if's solve seeds from.
			var start *opf.Solution
			if prevFresh && prev.Multipliers != nil {
				start = prev
			}
			sol, recovered, err := solveWithRecovery(ctx, eng, start)
			if err != nil {
				return nil, err
			}
			ctx.SetACOPF(sol)
			out := solutionSummary(sol, recovered)
			out["previous_load_mw"] = round2(oldP)
			out["new_load_mw"] = round2(pmw)
			// prev/prevFresh were captured before the modification: a
			// fresh pre-mod solution gives a meaningful cost delta.
			if prev != nil && prevFresh && prev.Solved {
				out["cost_delta"] = round2(sol.ObjectiveCost - prev.ObjectiveCost)
			}
			return out, nil
		},
	}
}

func networkStatusTool(ctx *session.Context) *Tool {
	return &Tool{
		Name: ToolNetworkStatus,
		Description: "Report the current session state: active case, component counts, total load, applied " +
			"modifications, and whether a fresh ACOPF solution exists. Pass a bus number to also get that " +
			"bus's current load.",
		Input: schema.Obj("", map[string]*schema.Schema{
			"bus": schema.Int("optional external bus number to inspect"),
		}),
		Output: schema.Obj("network status", map[string]*schema.Schema{
			"case_loaded": schema.Bool("whether a case is active"),
		}, "case_loaded").WithExtra(),
		Fn: func(args map[string]any) (any, error) {
			n, err := ctx.Network()
			if err == session.ErrNoCase {
				return map[string]any{"case_loaded": false}, nil
			}
			if err != nil {
				return nil, err
			}
			s := n.Summarize()
			loadP, loadQ := n.TotalLoad()
			out := map[string]any{
				"case_loaded":     true,
				"case_name":       n.Name,
				"buses":           s.Buses,
				"generators":      s.Gens,
				"loads":           s.Loads,
				"ac_lines":        s.ACLines,
				"transformers":    s.Transformers,
				"total_load_mw":   round2(loadP),
				"total_load_mvar": round2(loadQ),
				"modifications":   len(ctx.Diffs()),
				"diff_hash":       ctx.DiffHash(),
			}
			if sol, fresh := ctx.ACOPF(); sol != nil {
				out["last_objective_cost"] = round2(sol.ObjectiveCost)
				out["solution_fresh"] = fresh
				if at := ctx.ACOPFSolvedAt(); !at.IsZero() {
					out["last_solve_at"] = at.UTC().Format("2006-01-02T15:04:05Z")
				}
			}
			if v, ok := args["bus"].(float64); ok {
				bi := n.BusByID(int(v))
				if bi < 0 {
					return nil, fmt.Errorf("bus %d does not exist in %s", int(v), n.Name)
				}
				p, q := n.BusLoad(bi)
				out["bus"] = int(v)
				out["bus_load_mw"] = round2(p)
				out["bus_load_mvar"] = round2(q)
			}
			return out, nil
		},
	}
}

func solveBaseCaseTool(ctx *session.Context, eng *engine.Engine) *Tool {
	return &Tool{
		Name: ToolSolveBaseCase,
		Description: "Solve the pre-contingency base-case power flow (loading the named case first if given). " +
			"Required before any contingency analysis.",
		Input: schema.Obj("", map[string]*schema.Schema{
			"case_name": schema.Str("optional case to load first"),
		}),
		Output: schema.Obj("base case result", map[string]*schema.Schema{
			"converged":       schema.Bool("power flow convergence"),
			"loss_mw":         schema.Num("network losses MW"),
			"min_voltage_pu":  schema.Num("lowest bus voltage"),
			"max_loading_pct": schema.Num("worst branch loading %"),
		}, "converged").WithExtra(),
		Fn: func(args map[string]any) (any, error) {
			if name, ok := args["case_name"].(string); ok && name != "" {
				canonical := cases.Canonical(name)
				if canonical == "" {
					return nil, fmt.Errorf("unknown case %q", name)
				}
				if ctx.CaseName() != canonical {
					if _, err := ctx.LoadCase(canonical); err != nil {
						return nil, err
					}
				}
			}
			res, err := ensureBase(ctx, eng)
			if err != nil {
				return nil, err
			}
			n, err := ctx.Network()
			if err != nil {
				return nil, err
			}
			maxLoad := 0.0
			for _, f := range res.Flows {
				maxLoad = math.Max(maxLoad, f.LoadingPct)
			}
			return map[string]any{
				"converged":       res.Converged,
				"case_name":       n.Name,
				"iterations":      res.Iterations,
				"loss_mw":         round2(res.LossP),
				"min_voltage_pu":  round4(res.MinVm),
				"max_voltage_pu":  round4(res.MaxVm),
				"max_loading_pct": round2(maxLoad),
			}, nil
		},
	}
}

// ensureCASweep returns a fresh N-1 sweep (and the base power flow it ran
// from) for the current network state, running one under the session cache
// if needed. The single helper keeps every sweep-consuming tool on
// identical sweep options.
func ensureCASweep(ctx *session.Context, eng *engine.Engine) (*contingency.ResultSet, *powerflow.Result, error) {
	base, err := ensureBase(ctx, eng)
	if err != nil {
		return nil, nil, err
	}
	if rs, fresh := ctx.CASweep(); fresh {
		return rs, base, nil
	}
	n, err := ctx.Network()
	if err != nil {
		return nil, nil, err
	}
	rs, err := contingency.Analyze(n, base, sharedOpts(ctx, eng))
	if err != nil {
		return nil, nil, err
	}
	ctx.SetCASweep(rs)
	return rs, base, nil
}

// ensureBase returns a fresh base power flow, computing one if needed.
// The solve itself is memoized per session state in the engine, so N
// sessions at the same state pay for one solve.
func ensureBase(ctx *session.Context, eng *engine.Engine) (*powerflow.Result, error) {
	if base, fresh := ctx.BasePF(); fresh && base.Converged {
		return base, nil
	}
	n, err := ctx.Network()
	if err != nil {
		return nil, err
	}
	res, err := eng.BasePF(ctx.DiffHash(), n)
	if err != nil {
		return nil, fmt.Errorf("base case power flow failed: %w", err)
	}
	ctx.SetBasePF(res)
	return res, nil
}

func runN1Tool(ctx *session.Context, eng *engine.Engine) *Tool {
	return &Tool{
		Name: ToolRunN1,
		Description: "Run the full N-1 contingency sweep over every in-service branch, rank outages by " +
			"criticality and return the top-k critical elements with their violations.",
		Input: schema.Obj("", map[string]*schema.Schema{
			"top_k":    schema.Int("how many critical outages to report (default 5)").WithRange(1, 100),
			"strategy": schema.Str("ranking strategy").WithEnum("composite", "thermal-first"),
		}),
		Output: schema.Obj("contingency sweep", map[string]*schema.Schema{
			"total_outages":    schema.Int("outages analyzed"),
			"max_overload_pct": schema.Num("worst overload across the top-k"),
			"critical": schema.Arr("ranked critical outages", schema.Obj("", map[string]*schema.Schema{
				"branch": schema.Int("branch index"),
			}, "branch").WithExtra()),
		}, "total_outages", "critical").WithExtra(),
		Fn: func(args map[string]any) (any, error) {
			topK := 5
			if v, ok := args["top_k"].(float64); ok {
				topK = int(v)
			}
			strategy := contingency.Composite
			if s, ok := args["strategy"].(string); ok && s == "thermal-first" {
				strategy = contingency.ThermalFirst
			}
			rs, _, err := ensureCASweep(ctx, eng)
			if err != nil {
				return nil, err
			}
			stats := rs.Summarize()
			top := rs.Top(topK, strategy)
			crit := make([]map[string]any, 0, len(top))
			var maxOverload float64 // worst loading across the top-k
			for rank, o := range top {
				if o.MaxLoadingPct > maxOverload {
					maxOverload = o.MaxLoadingPct
				}
				crit = append(crit, map[string]any{
					"rank":            rank + 1,
					"branch":          o.Branch,
					"from_bus":        o.FromBusID,
					"to_bus":          o.ToBusID,
					"is_transformer":  o.IsXfmr,
					"severity":        round2(o.Severity),
					"max_loading_pct": round2(o.MaxLoadingPct),
					"overloads":       len(o.Overloads),
					"volt_violations": len(o.VoltViols),
					"load_shed_mw":    round2(o.LoadShedMW),
					"islanded":        o.Islanded,
					"description":     o.Describe(),
				})
			}
			recs := rs.Recommend(3)
			recRows := make([]map[string]any, 0, len(recs))
			for _, r := range recs {
				recRows = append(recRows, map[string]any{
					"kind":      string(r.Kind),
					"branch":    r.Branch,
					"bus_id":    r.BusID,
					"evidence":  r.Evidence,
					"rationale": r.Rationale,
				})
			}
			return map[string]any{
				"case_name":        rs.CaseName,
				"strategy":         strategy.String(),
				"total_outages":    stats.Total,
				"secure":           stats.Secure,
				"with_overload":    stats.WithOverload,
				"with_volt_viol":   stats.WithVoltViol,
				"islanding":        stats.Islanding,
				"unsolved":         stats.Unsolved,
				"screened":         rs.Screened,
				"max_overload_pct": round2(maxOverload),
				"critical":         crit,
				"recommendations":  recRows,
			}, nil
		},
	}
}

func analyzeOutageTool(ctx *session.Context, eng *engine.Engine) *Tool {
	return &Tool{
		Name: ToolAnalyzeOutage,
		Description: "Analyze the outage of one specific branch (line or transformer) and report violations, " +
			"islanding and estimated load shedding. Identify the branch by index, or by its terminal bus " +
			"numbers (from_bus and to_bus).",
		Input: schema.Obj("", map[string]*schema.Schema{
			"branch":   schema.Int("branch index to take out of service").WithRange(0, 1e6),
			"from_bus": schema.Int("terminal bus number (alternative to branch index)"),
			"to_bus":   schema.Int("other terminal bus number"),
		}),
		Output: schema.Obj("outage analysis", map[string]*schema.Schema{
			"branch":   schema.Int("branch index"),
			"severity": schema.Num("criticality score"),
		}, "branch", "severity").WithExtra(),
		Fn: func(args map[string]any) (any, error) {
			base, err := ensureBase(ctx, eng)
			if err != nil {
				return nil, err
			}
			n, err := ctx.Network()
			if err != nil {
				return nil, err
			}
			k := -1
			if v, ok := args["branch"].(float64); ok {
				k = int(v)
			} else if fb, ok := args["from_bus"].(float64); ok {
				tb, ok2 := args["to_bus"].(float64)
				if !ok2 {
					return nil, fmt.Errorf("from_bus requires to_bus")
				}
				fi, ti := n.BusByID(int(fb)), n.BusByID(int(tb))
				if fi < 0 || ti < 0 {
					return nil, fmt.Errorf("bus pair %d-%d not found in %s", int(fb), int(tb), n.Name)
				}
				for bk, br := range n.Branches {
					if (br.From == fi && br.To == ti) || (br.From == ti && br.To == fi) {
						k = bk
						break
					}
				}
				if k < 0 {
					return nil, fmt.Errorf("no branch connects buses %d and %d", int(fb), int(tb))
				}
			} else {
				return nil, fmt.Errorf("specify branch index or from_bus/to_bus")
			}
			if k < 0 || k >= len(n.Branches) {
				return nil, fmt.Errorf("branch %d out of range (case has %d branches)", k, len(n.Branches))
			}
			if !n.Branches[k].InService {
				return nil, fmt.Errorf("branch %d is already out of service", k)
			}
			var o *contingency.OutageResult
			if hit, ok := ctx.ContCache().Get(contingency.Key(ctx.DiffHash(), n.Name, k)); ok {
				o = hit
			} else {
				if o, err = contingency.AnalyzeOne(n, base, k, sharedOpts(ctx, eng)); err != nil {
					return nil, err
				}
				ctx.ContCache().Put(contingency.Key(ctx.DiffHash(), n.Name, k), o)
			}
			return map[string]any{
				"branch":          o.Branch,
				"from_bus":        o.FromBusID,
				"to_bus":          o.ToBusID,
				"is_transformer":  o.IsXfmr,
				"converged":       o.Converged,
				"islanded":        o.Islanded,
				"severity":        round2(o.Severity),
				"max_loading_pct": round2(o.MaxLoadingPct),
				"min_voltage_pu":  round4(o.MinVoltagePU),
				"overloads":       len(o.Overloads),
				"volt_violations": len(o.VoltViols),
				"load_shed_mw":    round2(o.LoadShedMW),
				"description":     o.Describe(),
			}, nil
		},
	}
}

func contStatusTool(ctx *session.Context) *Tool {
	return &Tool{
		Name: ToolContStatus,
		Description: "Report contingency-analysis status: whether a sweep exists for the current network " +
			"state, its summary statistics and cache effectiveness.",
		Input: schema.Obj("", map[string]*schema.Schema{}),
		Output: schema.Obj("contingency status", map[string]*schema.Schema{
			"sweep_available": schema.Bool("whether any sweep has run"),
		}, "sweep_available").WithExtra(),
		Fn: func(args map[string]any) (any, error) {
			rs, fresh := ctx.CASweep()
			hits, misses := ctx.ContCache().Stats()
			out := map[string]any{
				"sweep_available": rs != nil,
				"sweep_fresh":     fresh,
				"cache_entries":   ctx.ContCache().Len(),
				"cache_hits":      hits,
				"cache_misses":    misses,
			}
			if rs != nil {
				s := rs.Summarize()
				out["total_outages"] = s.Total
				out["secure"] = s.Secure
				out["with_overload"] = s.WithOverload
				out["islanding"] = s.Islanding
				out["unsolved"] = s.Unsolved
			}
			return out, nil
		},
	}
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }
