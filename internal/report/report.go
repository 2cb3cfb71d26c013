// Package report renders GridMind's structured artifacts — ACOPF
// solutions, contingency sweeps, quality assessments, session state — as
// aligned plain-text reports. The conversational layer narrates; this
// package prints the full audited records behind the narration, the way
// the paper's CLI surfaces solver detail on demand.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/opf"
	"gridmind/internal/session"
)

// Solution writes the full ACOPF record: dispatch table, voltage extrema,
// binding constraints, LMP spread.
func Solution(w io.Writer, n *model.Network, sol *opf.Solution) {
	fmt.Fprintf(w, "ACOPF solution — %s (%s)\n", sol.CaseName, sol.Method)
	fmt.Fprintf(w, "  solved: %t in %d iterations — %s\n", sol.Solved, sol.Iterations, sol.ConvergenceMessage)
	fmt.Fprintf(w, "  objective cost: %12.2f $/h\n", sol.ObjectiveCost)
	fmt.Fprintf(w, "  total dispatch: %12.2f MW  (losses %.2f MW)\n", sol.TotalGenMW(), sol.LossMW)
	fmt.Fprintf(w, "  voltage range : %12.4f - %.4f p.u.\n", sol.MinVoltagePU, sol.MaxVoltagePU)
	fmt.Fprintf(w, "  worst loading : %11.2f%%  (%d binding limits)\n", sol.MaxThermalLoading, sol.BindingFlowLimits)
	fmt.Fprintf(w, "  power balance : %12.3e p.u. max mismatch\n", sol.MaxMismatchPU)

	if len(sol.GenP) == len(n.Gens) {
		fmt.Fprintln(w, "\n  unit dispatch:")
		fmt.Fprintf(w, "    %4s %6s %10s %10s %10s %8s\n", "gen", "bus", "P (MW)", "Q (MVAr)", "Pmax", "at-limit")
		for g, gen := range n.Gens {
			if !gen.InService {
				continue
			}
			atLimit := ""
			if sol.GenP[g] > gen.PMax-1e-3 {
				atLimit = "max"
			} else if sol.GenP[g] < gen.PMin+1e-3 {
				atLimit = "min"
			}
			fmt.Fprintf(w, "    %4d %6d %10.2f %10.2f %10.1f %8s\n",
				g, n.Buses[gen.Bus].ID, sol.GenP[g], sol.GenQ[g], gen.PMax, atLimit)
		}
	}
	if len(sol.LMP) == len(n.Buses) {
		type pricedBus struct {
			id  int
			lmp float64
		}
		prices := make([]pricedBus, len(n.Buses))
		for i, b := range n.Buses {
			prices[i] = pricedBus{b.ID, sol.LMP[i]}
		}
		sort.Slice(prices, func(a, b int) bool { return prices[a].lmp > prices[b].lmp })
		fmt.Fprintf(w, "\n  LMP spread: %.2f (bus %d) down to %.2f (bus %d) $/MWh\n",
			prices[0].lmp, prices[0].id, prices[len(prices)-1].lmp, prices[len(prices)-1].id)
	}
}

// Sweep writes the contingency sweep summary, ranking and mitigation
// recommendations.
func Sweep(w io.Writer, rs *contingency.ResultSet, topK int) {
	s := rs.Summarize()
	fmt.Fprintf(w, "N-1 contingency sweep — %s\n", rs.CaseName)
	fmt.Fprintf(w, "  outages: %d total — %d secure, %d with overloads, %d with voltage violations, %d islanding, %d unsolved",
		s.Total, s.Secure, s.WithOverload, s.WithVoltViol, s.Islanding, s.Unsolved)
	if rs.Screened > 0 {
		fmt.Fprintf(w, " (%d certified by linear screening)", rs.Screened)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  base case: worst loading %.1f%%, min voltage %.4f p.u.\n",
		rs.BaseMaxLoadingPct, rs.BaseMinVoltagePU)

	fmt.Fprintf(w, "\n  top-%d critical (composite ranking):\n", topK)
	for rank, o := range rs.Top(topK, contingency.Composite) {
		fmt.Fprintf(w, "    %2d. [severity %7.1f] %s\n", rank+1, o.Severity, o.Describe())
	}
	if recs := rs.Recommend(3); len(recs) > 0 {
		fmt.Fprintln(w, "\n  mitigations:")
		for _, r := range recs {
			fmt.Fprintf(w, "    - [%s] %s\n", r.Kind, r.Rationale)
		}
	}
}

// QualityReport writes the 0-10 quality rubric.
func QualityReport(w io.Writer, q opf.Quality) {
	fmt.Fprintf(w, "solution quality: %.1f/10\n", q.OverallScore)
	fmt.Fprintf(w, "  convergence %.1f | constraints %.1f | economics %.1f | security %.1f\n",
		q.ConvergenceQuality, q.ConstraintSatisfaction, q.EconomicEfficiency, q.SystemSecurity)
	for _, r := range q.Recommendations {
		fmt.Fprintf(w, "  - %s\n", r)
	}
}

// Session writes the session state: case, diffs, artifacts, provenance
// tail.
func Session(w io.Writer, ctx *session.Context) {
	name := ctx.CaseName()
	if name == "" {
		fmt.Fprintln(w, "session: no case loaded")
		return
	}
	fmt.Fprintf(w, "session — case %s, state %s\n", name, ctx.DiffHash()[:12])
	diffs := ctx.Diffs()
	if len(diffs) == 0 {
		fmt.Fprintln(w, "  no modifications applied")
	} else {
		fmt.Fprintf(w, "  %d modification(s):\n", len(diffs))
		for _, d := range diffs {
			fmt.Fprintf(w, "    #%d %-14s %s\n", d.Seq, d.Kind, d.Note)
		}
	}
	if sol, fresh := ctx.ACOPF(); sol != nil {
		fmt.Fprintf(w, "  ACOPF artifact: cost %.2f $/h (fresh=%t)\n", sol.ObjectiveCost, fresh)
	}
	if rs, fresh := ctx.CASweep(); rs != nil {
		fmt.Fprintf(w, "  CA artifact: %d outages (fresh=%t)\n", len(rs.Outages), fresh)
	}
	hits, misses := ctx.ContCache().Stats()
	fmt.Fprintf(w, "  contingency cache: %d entries, %d hits / %d misses\n", ctx.ContCache().Len(), hits, misses)
	prov := ctx.Provenance()
	tail := prov
	if len(tail) > 5 {
		tail = tail[len(tail)-5:]
	}
	fmt.Fprintf(w, "  provenance (last %d of %d):\n", len(tail), len(prov))
	for _, p := range tail {
		fmt.Fprintf(w, "    %-22s state=%s %s\n", p.Tool, p.DiffHash[:8], truncate(p.Detail, 60))
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// Banner writes the REPL help block listing report commands.
func Banner(w io.Writer) {
	fmt.Fprintln(w, strings.TrimSpace(`
commands:
  :report     full report of the latest solution and sweep
  :session    session state, diff log, provenance
  :metrics    instrumentation log (CSV)
  :save FILE  persist the session for later resumption
  :load FILE  restore a persisted session
  exit        quit`))
}
