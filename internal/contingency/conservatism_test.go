package contingency_test

import (
	"fmt"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// verdict is one outage of a screened study: whether the screen certified
// it, and whether the exact (unscreened) study of the same outage is free
// of AC violations.
type verdict struct {
	item      string
	certified bool
	holds     bool
}

// TestDCScreeningIsConservative: no certificate may hide what the exact
// study finds. Each row runs one outage study with its DC screen on and off;
// a certified outage must show no AC violation in the exact run. Each study family must certify something somewhere, so
// no family passes vacuously (case30 certifies nothing: its base already
// runs a branch at 134 %). The cascade screen's contract is checked next to
// the cascade code, by scenario's TestCascadeScreenConservatism.
func TestDCScreeningIsConservative(t *testing.T) {
	rows := []struct {
		family, name string
		run          func(t *testing.T) []verdict
	}{
		{"n1", "case30", func(t *testing.T) []verdict { return n1Verdicts(t, "case30") }},
		{"n1", "case57", func(t *testing.T) []verdict { return n1Verdicts(t, "case57") }},
		{"n1", "case118", func(t *testing.T) []verdict { return n1Verdicts(t, "case118") }},
		{"n2", "case57_extended", n2ExtendedVerdicts},
	}
	certified := map[string]int{}
	for _, r := range rows {
		t.Run(r.family+"_"+r.name, func(t *testing.T) {
			var certs int
			for _, v := range r.run(t) {
				if !v.certified {
					continue
				}
				certs++
				if !v.holds {
					t.Errorf("%s: certified, but the exact study finds an AC violation", v.item)
				}
			}
			certified[r.family] += certs
			t.Logf("%d certified", certs)
		})
	}
	for _, family := range []string{"n1", "n2"} {
		if certified[family] == 0 {
			t.Errorf("the %s screen certified nothing on any row; its conservatism check has no teeth", family)
		}
	}
}

func solvedCase(t *testing.T, name string) (*model.Network, *powerflow.Result) {
	t.Helper()
	n := cases.MustLoad(name)
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil || !base.Converged {
		t.Fatalf("%s base: %v", name, err)
	}
	return n, base
}

// outageVerdicts pairs the records of a screened outage sweep with the
// exact sweep's, item for item.
func outageVerdicts(screened, exact *contingency.ResultSet) []verdict {
	vs := make([]verdict, len(screened.Outages))
	for i := range screened.Outages {
		s, e := &screened.Outages[i], &exact.Outages[i]
		vs[i] = verdict{
			item:      fmt.Sprintf("outage %d (branch %d, second %d, gen %d)", i, e.Branch, e.Branch2, e.Gen2),
			certified: s.Algorithm == contingency.ScreenedAlgorithm,
			holds:     e.Converged && !e.Islanded && len(e.Overloads) == 0 && len(e.VoltViols) == 0,
		}
	}
	return vs
}

// n1Verdicts runs the N-1 sweep with and without the DC screen.
func n1Verdicts(t *testing.T, name string) []verdict {
	n, base := solvedCase(t, name)
	exact, err := contingency.Analyze(n, base, contingency.Options{})
	if err != nil {
		t.Fatal(err)
	}
	screened, err := contingency.Analyze(n, base, contingency.Options{DCScreen: true})
	if err != nil {
		t.Fatal(err)
	}
	return outageVerdicts(screened, exact)
}

// n2ExtendedVerdicts runs the N-2 sweep with and without its pre-screen
// over case57's seeded critical pairs (where, correctly, next to nothing
// certifies) extended with every pair of N-1-secure branches, where
// certificates do happen.
func n2ExtendedVerdicts(t *testing.T) []verdict {
	n, base := solvedCase(t, "case57")
	n1, err := contingency.Analyze(n, base, contingency.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := contingency.SeedN2Pairs(n, n1, contingency.N2Options{TopK: 10})
	var benign []int
	for i := range n1.Outages {
		if o := &n1.Outages[i]; o.Converged && !o.Islanded && len(o.Overloads) == 0 && len(o.VoltViols) == 0 {
			benign = append(benign, o.Branch)
		}
	}
	for i := range benign {
		for j := i + 1; j < len(benign); j++ {
			pairs = append(pairs, contingency.N2Pair{BranchA: benign[i], BranchB: benign[j], Gen: -1})
		}
	}
	screened, err := contingency.AnalyzeN2(n, base, n1, contingency.N2Options{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := contingency.AnalyzeN2(n, base, n1, contingency.N2Options{Pairs: pairs, NoPreScreen: true})
	if err != nil {
		t.Fatal(err)
	}
	return outageVerdicts(screened, exact)
}
