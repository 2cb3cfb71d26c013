package contingency

import (
	"fmt"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
)

// The gen-outage differential harness, mirroring the branch-outage
// harness: for every analyzable generator outage of the paper's mid-size
// cases, the in-place classification path (ViewSolver re-deriving pSpec /
// reactive aggregates / PV-PQ membership from the view) must reproduce the
// legacy materialize-and-solve reference to 1e-9 — violation sets exactly.

func diffGenOutage(ref, got *GenOutageResult) error {
	switch {
	case ref.Gen != got.Gen || ref.BusID != got.BusID:
		return fmt.Errorf("identity fields differ")
	case ref.Converged != got.Converged:
		return fmt.Errorf("converged %v vs %v", ref.Converged, got.Converged)
	case !close9(ref.LostMW, got.LostMW):
		return fmt.Errorf("lost MW %v vs %v", ref.LostMW, got.LostMW)
	case !close9(ref.ReserveDeficitMW, got.ReserveDeficitMW):
		return fmt.Errorf("reserve deficit %v vs %v", ref.ReserveDeficitMW, got.ReserveDeficitMW)
	case !close9(ref.MaxLoadingPct, got.MaxLoadingPct):
		return fmt.Errorf("max loading %v vs %v", ref.MaxLoadingPct, got.MaxLoadingPct)
	case !close9(ref.MinVoltagePU, got.MinVoltagePU):
		return fmt.Errorf("min voltage %v vs %v", ref.MinVoltagePU, got.MinVoltagePU)
	case !close9(ref.Severity, got.Severity):
		return fmt.Errorf("severity %v vs %v", ref.Severity, got.Severity)
	case len(ref.Overloads) != len(got.Overloads):
		return fmt.Errorf("%d overloads vs %d", len(ref.Overloads), len(got.Overloads))
	case len(ref.VoltViols) != len(got.VoltViols):
		return fmt.Errorf("%d voltage violations vs %d", len(ref.VoltViols), len(got.VoltViols))
	}
	for i := range ref.Overloads {
		r, g := ref.Overloads[i], got.Overloads[i]
		if r.Branch != g.Branch || !close9(r.LoadingPct, g.LoadingPct) {
			return fmt.Errorf("overload %d: (%d, %v) vs (%d, %v)", i, r.Branch, r.LoadingPct, g.Branch, g.LoadingPct)
		}
	}
	for i := range ref.VoltViols {
		r, g := ref.VoltViols[i], got.VoltViols[i]
		if r.BusID != g.BusID || r.Low != g.Low || !close9(r.VmPU, g.VmPU) {
			return fmt.Errorf("voltage violation %d: %+v vs %+v", i, r, g)
		}
	}
	return nil
}

// genCorpus is the generator-outage corpus: three shipped cases and
// case57 at 1.8× demand ("case57x1.8"), whose outages escalate past
// Newton — a Q-relaxed rescue and a collapse.
func genCorpus() []struct {
	name string
	n    *model.Network
} {
	stressed := cases.MustLoad("case57").Clone()
	for i := range stressed.Loads {
		stressed.Loads[i].P *= 1.8
		stressed.Loads[i].Q *= 1.8
	}
	return []struct {
		name string
		n    *model.Network
	}{
		{"case30", cases.MustLoad("case30")},
		{"case57", cases.MustLoad("case57")},
		{"case118", cases.MustLoad("case118")},
		{"case57x1.8", stressed},
	}
}

func TestDifferentialGenOutageViewVsMaterializeReference(t *testing.T) {
	for _, c := range genCorpus() {
		name, n := c.name, c.n
		t.Run(name, func(t *testing.T) {
			opts := filledOptions()
			checked := 0
			for g, gen := range n.Gens {
				if !gen.InService {
					continue
				}
				ref, refErr := analyzeGenOutageMaterialize(n, g, opts)
				got, gotErr := AnalyzeGenOutage(n, g, Options{})
				if (refErr == nil) != (gotErr == nil) {
					t.Fatalf("%s gen %d: error class differs: %v vs %v", name, g, refErr, gotErr)
				}
				if refErr != nil {
					continue // the irreplaceable slack machine, on both paths
				}
				checked++
				if err := diffGenOutage(ref, got); err != nil {
					t.Fatalf("%s gen %d: in-place path diverges from materialize reference: %v", name, g, err)
				}
			}
			if checked == 0 {
				t.Fatalf("%s: no generator outages compared", name)
			}
		})
	}
}

// TestGenSweepNoMaterializeOnHotPath pins the generation sweep's
// zero-clone contract: it re-derives the classification in place and
// never materializes (or clones) a network, on the failure escalation
// (the Q-relaxed Newton on the view) too. The stressed corpus entry must
// still escalate, so that path is exercised.
func TestGenSweepNoMaterializeOnHotPath(t *testing.T) {
	failed := 0
	for _, c := range genCorpus() {
		clones0, mats0 := model.CloneCount(), model.MaterializeCount()
		out, err := AnalyzeGenOutages(c.n, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cl, m := model.CloneCount()-clones0, model.MaterializeCount()-mats0; cl != 0 || m != 0 {
			t.Fatalf("%s: gen sweep cloned %d and materialized %d networks, want 0 and 0", c.name, cl, m)
		}
		for i := range out {
			if !out[i].Converged {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Fatal("no generator outage failed both the Q-limited and the Q-relaxed solve; the corpus must exercise the failure path")
	}
}
