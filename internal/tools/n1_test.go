package tools

import (
	"encoding/json"
	"testing"

	"gridmind/internal/contingency"
)

// runN1Ref is run_n1_contingency_analysis's result as it was built
// before the tool took max_overload_pct from the top-k it had already
// ranked: a second ranking through ResultSet.MaxOverloadPct.
func runN1Ref(rs *contingency.ResultSet, topK int, strategy contingency.Strategy) map[string]any {
	stats := rs.Summarize()
	top := rs.Top(topK, strategy)
	crit := make([]map[string]any, 0, len(top))
	for rank, o := range top {
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
		"max_overload_pct": round2(rs.MaxOverloadPct(topK, strategy)),
		"critical":         crit,
		"recommendations":  recRows,
	}
}

// memoFree is a copy of rs with nothing ranked yet: the set decoded from
// its own JSON, which carries the outages and none of the memo.
func memoFree(t *testing.T, rs *contingency.ResultSet) *contingency.ResultSet {
	t.Helper()
	raw, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	var fresh contingency.ResultSet
	if err := json.Unmarshal(raw, &fresh); err != nil {
		t.Fatal(err)
	}
	return &fresh
}

// TestRunN1MatchesReference: the N-1 tool's output is byte for byte the
// reference's on case30/57/118 at top_k 1, 5, 10 and 100 under both
// ranking strategies. The reference ranks a memo-free copy of the sweep,
// and the tool answers each (top_k, strategy) twice with the other
// strategy in between, so a ranking memo that went stale, or that served
// one strategy's order for the other, fails here.
func TestRunN1MatchesReference(t *testing.T) {
	strategies := []struct {
		name  string
		other string
		s     contingency.Strategy
	}{
		{"composite", "thermal-first", contingency.Composite},
		{"thermal-first", "composite", contingency.ThermalFirst},
	}
	for _, c := range []string{"case30", "case57", "case118"} {
		r, sess := newGridMind(t)
		if _, _, err := r.Invoke(ToolSolveBaseCase, map[string]any{"case_name": c}); err != nil {
			t.Fatal(err)
		}
		invoke := func(k int, strategy string) string {
			t.Helper()
			_, raw, err := r.Invoke(ToolRunN1, map[string]any{"top_k": k, "strategy": strategy})
			if err != nil {
				t.Fatal(err)
			}
			return string(raw)
		}
		for _, st := range strategies {
			for _, k := range []int{1, 5, 10, 100} {
				first := invoke(k, st.name)
				invoke(k, st.other)
				second := invoke(k, st.name)
				rs, fresh := sess.CASweep()
				if !fresh {
					t.Fatalf("%s: no fresh sweep after the tool ran", c)
				}
				want, err := json.Marshal(runN1Ref(memoFree(t, rs), k, st.s))
				if err != nil {
					t.Fatal(err)
				}
				for call, got := range []string{first, second} {
					if got != string(want) {
						t.Errorf("%s %s top_k %d, call %d:\n%s\nreference\n%s", c, st.name, k, call+1, got, want)
					}
				}
			}
		}
	}
}
