package tools

import (
	"fmt"
	"sort"

	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/opf"
	"gridmind/internal/scenario"
	"gridmind/internal/schema"
	"gridmind/internal/scopf"
	"gridmind/internal/sensitivity"
	"gridmind/internal/session"
)

// Extension tool names. These go beyond the paper's Appendix B.3 set,
// exercising the registry property §3.1 calls out: "new analytical tools
// can be registered with a schema; the planner notices capabilities
// without refactoring core logic". They implement the §B.4 workflow
// capabilities (sensitivity analysis; economic vs security-constrained
// comparison).
const (
	ToolLoadSensitivity = "analyze_load_sensitivity"
	ToolCompareStrategy = "compare_operation_strategies"
	ToolGenOutage       = "analyze_generator_outage"
	ToolAssessQuality   = "assess_solution_quality"
	ToolRunN2           = "run_n2_contingency_screening"
	ToolCascade         = "run_cascade_study"
	ToolRunMC           = "run_reliability_mc"
)

// ExtendedACOPFToolNames returns the ACOPF agent's toolbox including the
// registered extensions.
func ExtendedACOPFToolNames() []string {
	return append(ACOPFToolNames(), ToolLoadSensitivity, ToolCompareStrategy, ToolAssessQuality)
}

// ExtendedCAToolNames returns the CA agent's toolbox including the
// generator-outage, N-2 screening, cascade and Monte Carlo reliability
// extensions.
func ExtendedCAToolNames() []string {
	return append(CAToolNames(), ToolGenOutage, ToolRunN2, ToolCascade, ToolRunMC)
}

// RegisterExtensions adds the extension tools to a registry bound to the
// same session and shared artifact engine.
func RegisterExtensions(r *Registry, ctx *session.Context, eng *engine.Engine) error {
	if err := r.Register(loadSensitivityTool(ctx, eng)); err != nil {
		return err
	}
	if err := r.Register(compareStrategyTool(ctx, eng)); err != nil {
		return err
	}
	if err := r.Register(genOutageTool(ctx, eng)); err != nil {
		return err
	}
	if err := r.Register(runN2Tool(ctx, eng)); err != nil {
		return err
	}
	if err := r.Register(cascadeTool(ctx, eng)); err != nil {
		return err
	}
	if err := r.Register(reliabilityMCTool(ctx, eng)); err != nil {
		return err
	}
	return r.Register(assessQualityTool(ctx, eng))
}

// floats returns xs as the []any of float64 its JSON decodes to, nil for
// nil, so a tool result built from it normalizes without a JSON round trip.
func floats(xs []int) []any {
	if xs == nil {
		return nil
	}
	out := make([]any, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// cascadeStageRows condenses a cascade's stage records for tool output.
func cascadeStageRows(stages []scenario.Stage) []map[string]any {
	rows := make([]map[string]any, 0, len(stages))
	for _, sg := range stages {
		rows = append(rows, map[string]any{
			"stage":           sg.Index,
			"trips":           floats(sg.Trips),
			"islanded":        sg.Islanded,
			"converged":       sg.Converged,
			"max_loading_pct": round2(sg.MaxLoadingPct),
			"min_voltage_pu":  round4(sg.MinVoltagePU),
			"overloads":       len(sg.Overloads),
			"volt_violations": len(sg.VoltViols),
			"next_trips":      floats(sg.NextTrips),
			"redispatch_mw":   round2(sg.RedispatchMW),
		})
	}
	return rows
}

// cascadeTool exposes N-k cascade studies to the reliability (CA) agent:
// a seed disturbance propagates through protection-style trip rounds on
// the zero-clone stacked-view path, or — with no seed given — a full
// sweep cascades every in-service branch outage with the lazy-LODF
// screen discarding the provably non-cascading seeds.
func cascadeTool(ctx *session.Context, eng *engine.Engine) *Tool {
	return &Tool{
		Name: ToolCascade,
		Description: "Run an N-k cascading-failure study: trip the seed branches (and optionally generators), " +
			"re-solve, trip every branch loaded past the protection threshold, and repeat to the depth limit. " +
			"Omit the seed to sweep ALL single-branch seeds and rank the worst cascade. Reports the trip " +
			"sequence, stage-by-stage loadings, islanding-driven load shed and a severity score.",
		Input: schema.Obj("", map[string]*schema.Schema{
			"branches":   schema.Arr("seed branch indices to trip (omit for a full sweep)", schema.Int("")),
			"gen_buses":  schema.Arr("bus numbers of generating units lost in the initiating event", schema.Int("")),
			"load_scale": schema.Num("uniform demand multiplier for the study (default 1.0)").WithRange(0.1, 2),
			"max_depth":  schema.Int("propagation rounds beyond the seed (default 3)").WithRange(1, 10),
			"trip_pct":   schema.Num("protection trip threshold in % of rating (default 115)").WithRange(100, 300),
			"redispatch": schema.Bool("apply governor redispatch between rounds (default false)"),
			"no_screen":  schema.Bool("sweep mode: disable the DC pre-screen and study every seed"),
		}),
		Output: schema.Obj("cascade study", map[string]*schema.Schema{
			"mode": schema.Str("'event' or 'sweep'"),
		}, "mode").WithExtra(),
		Fn: func(args map[string]any) (any, error) {
			base, err := ensureBase(ctx, eng)
			if err != nil {
				return nil, err
			}
			n, err := ctx.Network()
			if err != nil {
				return nil, err
			}
			// The state's sweep pool, the one the contingency tools run on.
			opts := scenario.Options{Pool: eng.SweepPool(ctx.DiffHash()), Metrics: eng.Metrics()}
			if v, ok := args["max_depth"].(float64); ok {
				opts.MaxDepth = int(v)
			}
			if v, ok := args["trip_pct"].(float64); ok {
				opts.TripPct = v
			}
			if v, ok := args["redispatch"].(bool); ok {
				opts.Redispatch = v
			}
			var ev scenario.Event
			if raw, ok := args["branches"].([]any); ok {
				for _, b := range raw {
					if f, ok := b.(float64); ok {
						ev.Branches = append(ev.Branches, int(f))
					}
				}
			}
			if raw, ok := args["gen_buses"].([]any); ok {
				for _, b := range raw {
					f, ok := b.(float64)
					if !ok {
						continue
					}
					bi := n.BusByID(int(f))
					if bi < 0 {
						return nil, fmt.Errorf("bus %d does not exist in %s", int(f), n.Name)
					}
					gens := n.GensAtBus(bi)
					if len(gens) == 0 {
						return nil, fmt.Errorf("no in-service generator at bus %d", int(f))
					}
					ev.Gens = append(ev.Gens, gens[0])
				}
			}
			if v, ok := args["load_scale"].(float64); ok {
				ev.LoadScale = v
			}

			if len(ev.Branches) == 0 && len(ev.Gens) == 0 {
				// Sweep mode: every in-service branch seeds one cascade.
				opts.DCScreen = true
				if v, ok := args["no_screen"].(bool); ok && v {
					opts.DCScreen = false
				}
				sw, err := scenario.Sweep(n, base, opts)
				if err != nil {
					return nil, err
				}
				out := map[string]any{
					"mode":           "sweep",
					"case_name":      sw.Case,
					"seeds":          sw.Seeds,
					"screened":       sw.Screened,
					"stable":         sw.Stable,
					"cascaded":       sw.Cascaded,
					"islanded":       sw.Islanded,
					"collapsed":      sw.Collapsed,
					"depth_limited":  sw.DepthLimited,
					"worst_seed":     sw.WorstSeed,
					"worst_severity": round2(sw.WorstSeverity),
					"max_shed_mw":    round2(sw.MaxShedMW),
				}
				if r := sw.Results[sw.WorstSeed]; r != nil {
					out["worst_outcome"] = string(r.Outcome)
					out["worst_trip_sequence"] = floats(r.TrippedBranches)
					out["worst_load_shed_mw"] = round2(r.LoadShedMW)
					out["worst_stages"] = cascadeStageRows(r.Stages)
				}
				ctx.AddProvenance(ToolCascade, fmt.Sprintf(
					"cascade sweep: %d seeds (%d screened), %d stable, %d cascaded, %d islanded, %d collapsed; worst seed %d severity %.1f",
					sw.Seeds, sw.Screened, sw.Stable, sw.Cascaded, sw.Islanded, sw.Collapsed, sw.WorstSeed, sw.WorstSeverity))
				return out, nil
			}

			r, err := scenario.Cascade(n, base, ev, opts)
			if err != nil {
				return nil, err
			}
			ctx.AddProvenance(ToolCascade, fmt.Sprintf(
				"cascade event %v: outcome %s, depth %d, %d branches tripped, %.1f MW shed",
				ev.Branches, r.Outcome, r.Depth, len(r.TrippedBranches), r.LoadShedMW))
			return map[string]any{
				"mode":           "event",
				"case_name":      n.Name,
				"outcome":        string(r.Outcome),
				"depth":          r.Depth,
				"trip_sequence":  floats(r.TrippedBranches),
				"gens_out":       floats(r.GensOut),
				"load_shed_mw":   round2(r.LoadShedMW),
				"lost_gen_mw":    round2(r.LostGenMW),
				"gen_deficit_mw": round2(r.GenDeficitMW),
				"severity":       round2(r.Severity),
				"stages":         cascadeStageRows(r.Stages),
			}, nil
		},
	}
}

// reliabilityMCTool exposes seeded Monte Carlo reliability estimation:
// independent outage/demand draws cascade through the scenario engine,
// and loss-of-load / overload / cascade probabilities come back with
// Wilson 95% confidence intervals. Fixed seeds replay bit-identically.
func reliabilityMCTool(ctx *session.Context, eng *engine.Engine) *Tool {
	return &Tool{
		Name: ToolRunMC,
		Description: "Estimate reliability indices by Monte Carlo: sample random branch/generator outages and " +
			"demand deviations, cascade each draw, and report loss-of-load probability (LOLP), overload and " +
			"cascade probabilities with 95% Wilson confidence intervals, plus expected load shed per draw. " +
			"Deterministic for a fixed seed.",
		Input: schema.Obj("", map[string]*schema.Schema{
			"samples":            schema.Int("number of Monte Carlo draws (default 100)").WithRange(10, 10000),
			"seed":               schema.Int("RNG seed (default 0); a fixed seed replays exactly"),
			"branch_outage_prob": schema.Num("per-branch outage probability per draw (default 0.01)").WithRange(0, 0.5),
			"gen_outage_prob":    schema.Num("per-generator outage probability per draw (default 0)").WithRange(0, 0.5),
			"load_sigma":         schema.Num("std dev of the demand multiplier (default 0.03)").WithRange(0, 0.3),
		}),
		Output: schema.Obj("Monte Carlo reliability", map[string]*schema.Schema{
			"samples": schema.Int("draws evaluated"),
			"lolp":    schema.Num("loss-of-load probability point estimate"),
		}, "samples", "lolp").WithExtra(),
		Fn: func(args map[string]any) (any, error) {
			base, err := ensureBase(ctx, eng)
			if err != nil {
				return nil, err
			}
			n, err := ctx.Network()
			if err != nil {
				return nil, err
			}
			mo := scenario.MCOptions{
				BranchOutageProb: 0.01,
				LoadSigma:        0.03,
				Cascade:          scenario.Options{Pool: eng.SweepPool(ctx.DiffHash()), Metrics: eng.Metrics()},
			}
			if v, ok := args["samples"].(float64); ok {
				mo.Samples = int(v)
			}
			if v, ok := args["seed"].(float64); ok {
				mo.Seed = int64(v)
			}
			if v, ok := args["branch_outage_prob"].(float64); ok {
				mo.BranchOutageProb = v
			}
			if v, ok := args["gen_outage_prob"].(float64); ok {
				mo.GenOutageProb = v
			}
			if v, ok := args["load_sigma"].(float64); ok {
				mo.LoadSigma = v
			}
			res, err := scenario.RunMC(n, base, mo)
			if err != nil {
				return nil, err
			}
			interval := func(iv scenario.Interval) map[string]any {
				return map[string]any{"p": round4(iv.P), "lo": round4(iv.Lo), "hi": round4(iv.Hi)}
			}
			ctx.AddProvenance(ToolRunMC, fmt.Sprintf(
				"Monte Carlo reliability: %d draws seed %d, LOLP %.4f [%.4f, %.4f], mean shed %.2f MW",
				res.Samples, res.Seed, res.LossOfLoad.P, res.LossOfLoad.Lo, res.LossOfLoad.Hi, res.MeanShedMW))
			return map[string]any{
				"case_name":          n.Name,
				"samples":            res.Samples,
				"seed":               float64(res.Seed),
				"lolp":               round4(res.LossOfLoad.P),
				"loss_of_load":       interval(res.LossOfLoad),
				"overload":           interval(res.Overload),
				"cascade":            interval(res.CascadeProb),
				"mean_shed_mw":       round2(res.MeanShedMW),
				"branch_outage_prob": mo.BranchOutageProb,
				"gen_outage_prob":    mo.GenOutageProb,
				"load_sigma":         mo.LoadSigma,
			}, nil
		},
	}
}

// runN2Tool exposes the N-2 screening pipeline to the reliability (CA)
// agent: candidate double outages are seeded from the session's N-1 sweep
// (run on demand) and each is AC-verified on the zero-clone view path.
func runN2Tool(ctx *session.Context, eng *engine.Engine) *Tool {
	return &Tool{
		Name: ToolRunN2,
		Description: "Run N-2 (double outage) contingency screening: seed candidate branch pairs from the " +
			"N-1 critical list, AC-verify each pair, and return the top-k critical pairs with their violations.",
		Input: schema.Obj("", map[string]*schema.Schema{
			"top_k":     schema.Int("how many critical pairs to report (default 5)").WithRange(1, 100),
			"seed_k":    schema.Int("how many N-1 critical outages to seed pairs from (default 10)").WithRange(2, 50),
			"max_pairs": schema.Int("cap on candidate pairs (default: no cap)").WithRange(1, 10000),
		}),
		Output: schema.Obj("N-2 screening", map[string]*schema.Schema{
			"total_pairs": schema.Int("candidate pairs analyzed"),
			"critical": schema.Arr("ranked critical pairs", schema.Obj("", map[string]*schema.Schema{
				"branch_a": schema.Int("first branch index"),
				"branch_b": schema.Int("second branch index"),
			}, "branch_a", "branch_b").WithExtra()),
		}, "total_pairs", "critical").WithExtra(),
		Fn: func(args map[string]any) (any, error) {
			topK := 5
			if v, ok := args["top_k"].(float64); ok {
				topK = int(v)
			}
			n1, base, err := ensureCASweep(ctx, eng)
			if err != nil {
				return nil, err
			}
			n, err := ctx.Network()
			if err != nil {
				return nil, err
			}
			n2opts := contingency.N2Options{Options: sharedOpts(ctx, eng)}
			if v, ok := args["seed_k"].(float64); ok {
				n2opts.TopK = int(v)
			}
			if v, ok := args["max_pairs"].(float64); ok {
				n2opts.MaxPairs = int(v)
			}
			rs, err := contingency.AnalyzeN2(n, base, n1, n2opts)
			if err != nil {
				return nil, err
			}
			stats := rs.Summarize()
			top := rs.Top(topK, contingency.Composite)
			crit := make([]map[string]any, 0, len(top))
			for rank, o := range top {
				crit = append(crit, map[string]any{
					"rank":            rank + 1,
					"branch_a":        o.Branch,
					"branch_b":        o.Branch2,
					"from_bus":        o.FromBusID,
					"to_bus":          o.ToBusID,
					"from2_bus":       o.From2BusID,
					"to2_bus":         o.To2BusID,
					"severity":        round2(o.Severity),
					"max_loading_pct": round2(o.MaxLoadingPct),
					"overloads":       len(o.Overloads),
					"volt_violations": len(o.VoltViols),
					"load_shed_mw":    round2(o.LoadShedMW),
					"islanded":        o.Islanded,
					"description":     o.Describe(),
				})
			}
			ctx.AddProvenance(ToolRunN2, fmt.Sprintf(
				"N-2 screening: %d pairs, %d islanding, %d with overloads",
				stats.Total, stats.Islanding, stats.WithOverload))
			return map[string]any{
				"case_name":      rs.CaseName,
				"total_pairs":    stats.Total,
				"secure":         stats.Secure,
				"with_overload":  stats.WithOverload,
				"with_volt_viol": stats.WithVoltViol,
				"islanding":      stats.Islanding,
				"unsolved":       stats.Unsolved,
				"critical":       crit,
			}, nil
		},
	}
}

func assessQualityTool(ctx *session.Context, eng *engine.Engine) *Tool {
	return &Tool{
		Name: ToolAssessQuality,
		Description: "Score the current ACOPF solution on the 0-10 quality rubric (convergence, constraint " +
			"satisfaction, economic efficiency, system security) with recommendations — Figure 4's capability 4.",
		Input: schema.Obj("", map[string]*schema.Schema{}),
		Output: schema.Obj("solution quality", map[string]*schema.Schema{
			"overall_score": schema.Num("0-10 composite").WithRange(0, 10),
		}, "overall_score").WithExtra(),
		Fn: func(args map[string]any) (any, error) {
			n, err := ctx.Network()
			if err != nil {
				return nil, err
			}
			sol, err := ensureSolved(ctx, eng)
			if err != nil {
				return nil, err
			}
			q := opf.AssessQuality(n, sol)
			return map[string]any{
				"case_name":               n.Name,
				"overall_score":           round2(q.OverallScore),
				"convergence_quality":     round2(q.ConvergenceQuality),
				"constraint_satisfaction": round2(q.ConstraintSatisfaction),
				"economic_efficiency":     round2(q.EconomicEfficiency),
				"system_security":         round2(q.SystemSecurity),
				"recommendations":         q.Recommendations,
				"objective_cost":          round2(sol.ObjectiveCost),
			}, nil
		},
	}
}

func genOutageTool(ctx *session.Context, eng *engine.Engine) *Tool {
	return &Tool{
		Name: ToolGenOutage,
		Description: "Analyze the loss of a generator: the lost dispatch is picked up by the remaining " +
			"fleet's headroom (governor response), then the post-outage state is screened for overloads, " +
			"voltage violations and reserve deficits. Identify the unit by its bus number.",
		Input: schema.Obj("", map[string]*schema.Schema{
			"bus": schema.Int("bus number of the generating unit"),
		}, "bus"),
		Output: schema.Obj("generator outage analysis", map[string]*schema.Schema{
			"bus_id":   schema.Int(""),
			"severity": schema.Num("criticality score"),
		}, "bus_id", "severity").WithExtra(),
		Fn: func(args map[string]any) (any, error) {
			busID := int(args["bus"].(float64))
			n, err := ctx.Network()
			if err != nil {
				return nil, err
			}
			bi := n.BusByID(busID)
			if bi < 0 {
				return nil, fmt.Errorf("bus %d does not exist in %s", busID, n.Name)
			}
			gens := n.GensAtBus(bi)
			if len(gens) == 0 {
				return nil, fmt.Errorf("no in-service generator at bus %d", busID)
			}
			out, err := contingency.AnalyzeGenOutage(n, gens[0], sharedOpts(ctx, eng))
			if err != nil {
				return nil, err
			}
			ctx.AddProvenance(ToolGenOutage, out.Describe())
			return map[string]any{
				"bus_id":             out.BusID,
				"gen":                out.Gen,
				"lost_mw":            round2(out.LostMW),
				"converged":          out.Converged,
				"reserve_deficit_mw": round2(out.ReserveDeficitMW),
				"max_loading_pct":    round2(out.MaxLoadingPct),
				"min_voltage_pu":     round4(out.MinVoltagePU),
				"overloads":          len(out.Overloads),
				"volt_violations":    len(out.VoltViols),
				"severity":           round2(out.Severity),
				"description":        out.Describe(),
			}, nil
		},
	}
}

// ensureSolved returns a fresh ACOPF solution, solving if necessary.
func ensureSolved(ctx *session.Context, eng *engine.Engine) (*opf.Solution, error) {
	if sol, fresh := ctx.ACOPF(); fresh && sol.Solved {
		return sol, nil
	}
	sol, _, err := solveWithRecovery(ctx, eng, nil)
	if err != nil {
		return nil, err
	}
	ctx.SetACOPF(sol)
	return sol, nil
}

func loadSensitivityTool(ctx *session.Context, eng *engine.Engine) *Tool {
	return &Tool{
		Name: ToolLoadSensitivity,
		Description: "Assess the economic impact of incremental load at specific buses: first-order LMP " +
			"prediction plus exact warm-started re-solves, with the consistency between the two.",
		Input: schema.Obj("", map[string]*schema.Schema{
			"buses":    schema.Arr("external bus numbers to probe (default: the three priciest buses)", schema.Int("")),
			"delta_mw": schema.Num("MW step per bus (default 1)").WithRange(-1000, 1000),
		}),
		Output: schema.Obj("sensitivity analysis", map[string]*schema.Schema{
			"impacts": schema.Arr("per-bus impact rows", schema.Obj("", map[string]*schema.Schema{
				"bus_id": schema.Int(""),
			}, "bus_id").WithExtra()),
		}, "impacts").WithExtra(),
		Fn: func(args map[string]any) (any, error) {
			n, err := ctx.Network()
			if err != nil {
				return nil, err
			}
			base, err := ensureSolved(ctx, eng)
			if err != nil {
				return nil, err
			}
			delta := 1.0
			if v, ok := args["delta_mw"].(float64); ok && v != 0 {
				delta = v
			}
			var buses []int
			if raw, ok := args["buses"].([]any); ok {
				for _, b := range raw {
					if f, ok := b.(float64); ok {
						buses = append(buses, int(f))
					}
				}
			}
			if len(buses) == 0 {
				prices, err := sensitivity.PriceMap(n, base)
				if err != nil {
					return nil, err
				}
				for i := 0; i < 3 && i < len(prices); i++ {
					buses = append(buses, prices[i].BusID)
				}
			}
			// Run the impact re-solves in the case's pooled KKT context:
			// the load modifications keep the compiled pattern valid, so
			// a warm pool means zero symbolic work for the whole sweep.
			sig := eng.Artifacts(n).Sig
			kkt := eng.AcquireOPF(sig)
			impacts, err := sensitivity.LoadImpacts(n, base, buses, delta, kkt)
			eng.ReleaseOPF(sig, kkt)
			if err != nil {
				return nil, err
			}
			mare, solved := sensitivity.Consistency(impacts)
			rows := make([]map[string]any, 0, len(impacts))
			for _, im := range impacts {
				rows = append(rows, map[string]any{
					"bus_id":          im.BusID,
					"delta_mw":        im.DeltaMW,
					"lmp_predicted":   round2(im.LMPPredicted),
					"cost_delta":      round2(im.CostDelta),
					"cost_per_mw":     round2(im.CostPerMW),
					"min_voltage_pu":  round4(im.MinVoltagePU),
					"max_loading_pct": round2(im.MaxLoadingPct),
					"solved":          im.Solved,
				})
			}
			sort.Slice(rows, func(a, b int) bool {
				return rows[a]["cost_per_mw"].(float64) > rows[b]["cost_per_mw"].(float64)
			})
			return map[string]any{
				"case_name":             n.Name,
				"delta_mw":              delta,
				"impacts":               rows,
				"lmp_consistency_error": round4(mare),
				"solved_probes":         solved,
			}, nil
		},
	}
}

func compareStrategyTool(ctx *session.Context, eng *engine.Engine) *Tool {
	return &Tool{
		Name: ToolCompareStrategy,
		Description: "Compare economic (unconstrained ACOPF) against security-constrained operation " +
			"(preventive SCOPF): costs, the security premium, and post-contingency violation counts.",
		Input: schema.Obj("", map[string]*schema.Schema{
			"max_rounds": schema.Int("SCOPF tightening rounds (default 3)").WithRange(1, 10),
		}),
		Output: schema.Obj("operation strategy comparison", map[string]*schema.Schema{
			"economic_cost":    schema.Num("unconstrained cost $/h"),
			"secure_cost":      schema.Num("security-constrained cost $/h"),
			"security_premium": schema.Num("secure − economic $/h"),
		}, "economic_cost", "secure_cost").WithExtra(),
		Fn: func(args map[string]any) (any, error) {
			n, err := ctx.Network()
			if err != nil {
				return nil, err
			}
			rounds := 3
			if v, ok := args["max_rounds"].(float64); ok {
				rounds = int(v)
			}
			// The SCOPF loop re-solves the same structure many times; hand it
			// a pooled KKT context so even the FIRST round of a new session
			// skips pattern compilation when any session solved this
			// structure before.
			sig := eng.Artifacts(n).Sig
			kkt := eng.AcquireOPF(sig)
			defer eng.ReleaseOPF(sig, kkt)
			cmp, err := scopf.Compare(n, scopf.Options{Screen: true, MaxRounds: rounds, Context: kkt})
			if err != nil {
				return nil, err
			}
			ctx.AddProvenance("compare_strategies", fmt.Sprintf(
				"economic=%.2f secure=%.2f premium=%.2f", cmp.Economic.ObjectiveCost,
				cmp.Secure.Solution.ObjectiveCost, cmp.Secure.SecurityPremium))
			return map[string]any{
				"case_name":          n.Name,
				"economic_cost":      round2(cmp.Economic.ObjectiveCost),
				"secure_cost":        round2(cmp.Secure.Solution.ObjectiveCost),
				"security_premium":   round2(cmp.Secure.Solution.ObjectiveCost - cmp.Economic.ObjectiveCost),
				"premium_pct":        round2(cmp.PremiumPct),
				"rounds":             cmp.Secure.Rounds,
				"fully_secure":       cmp.Secure.Secure,
				"violations_before":  cmp.Secure.ViolationsBefore,
				"violations_after":   cmp.Secure.ViolationsAfter,
				"worst_before_pct":   round2(cmp.Secure.WorstBeforePct),
				"worst_after_pct":    round2(cmp.Secure.WorstAfterPct),
				"tightened_branches": len(cmp.Secure.TightenedBranches),
			}, nil
		},
	}
}
