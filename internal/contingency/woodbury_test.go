package contingency

import (
	"testing"

	"gridmind/internal/cases"
)

// TestWoodburyVoltageFloorConservative compares the screener's Woodbury
// Q-V voltage estimate against the exact AC post-outage minimum voltage:
// for every outage where the estimate is trusted, it must not overstate
// the true floor by more than the screening margin — otherwise an outage
// with a real low-voltage violation could be certified secure.
func TestWoodburyVoltageFloorConservative(t *testing.T) {
	for _, name := range []string{"case30", "case57"} {
		n := cases.MustLoad(name)
		base := solveBase(t, n)
		opts := Options{}
		opts.fill()
		s, err := newScreener(n, base, opts)
		if err != nil {
			t.Fatalf("%s: newScreener: %v", name, err)
		}
		if s.luBpp == nil {
			// case30's authentic base point is itself insecure, which
			// disables the screener entirely; the estimator is then never
			// consulted, so there is nothing to validate.
			if name == "case30" {
				continue
			}
			t.Fatalf("%s: voltage screening unavailable", name)
		}
		checked := 0
		for _, k := range n.InServiceBranches() {
			flows, err := s.factors.PostOutageFlows(s.preP, k)
			if err != nil {
				continue // islanding: no linear estimate exists
			}
			dv, ok := s.qvSolveMulti(n, []int{k}, flows)
			if !ok {
				continue // estimator flags itself untrustworthy: fine
			}
			est, _, ok := s.boundsFromDV(n, dv)
			if !ok {
				continue
			}
			ac := AnalyzeOne(n, base, k, opts)
			if !ac.Converged || ac.Islanded {
				continue // exact path has no comparable voltage floor
			}
			checked++
			if est > ac.MinVoltagePU+voltScreenMarginPU {
				t.Errorf("%s: branch %d outage: estimated floor %.4f overshoots AC floor %.4f by more than margin %.3f",
					name, k, est, ac.MinVoltagePU, voltScreenMarginPU)
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no outages were comparable", name)
		}
	}
}
