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

func TestDifferentialGenOutageViewVsMaterializeReference(t *testing.T) {
	for _, name := range []string{"case30", "case57", "case118"} {
		t.Run(name, func(t *testing.T) {
			n := cases.MustLoad(name)
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

// TestGenSweepNoMaterializeOnHotPath pins the ROADMAP follow-on this PR
// closes: the generation sweep's happy path re-derives the classification
// in place and never materializes (or clones) a network. Fallback solves
// are the only permitted exception, bounded by the non-Newton results.
func TestGenSweepNoMaterializeOnHotPath(t *testing.T) {
	for _, name := range []string{"case30", "case57", "case118"} {
		n := cases.MustLoad(name)
		clones0, mats0 := model.CloneCount(), model.MaterializeCount()
		out, err := AnalyzeGenOutages(n, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		clones := model.CloneCount() - clones0
		mats := model.MaterializeCount() - mats0
		if clones != 0 {
			t.Fatalf("%s: gen sweep cloned %d networks, want 0", name, clones)
		}
		var fallbacks int64
		for i := range out {
			if !out[i].Converged {
				fallbacks++
			}
		}
		if mats > fallbacks {
			t.Fatalf("%s: gen sweep materialized %d networks for %d fallback solves", name, mats, fallbacks)
		}
	}
}
