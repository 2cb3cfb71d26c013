package contingency

import (
	"fmt"
	"math"
	"testing"

	"gridmind/internal/cases"
)

// The differential harness: for every in-service branch outage of the
// paper's mid-size cases, the zero-clone OutageView + patched-Ybus path
// must reproduce the clone-based reference (analyzeClone) —
// classification, flows-derived metrics, voltages and severity — to
// 1e-9. This is the contract that makes the fast path trustworthy: any
// incremental-update bug (a stale patch, a leaked buffer, a wrong
// classification reset) shows up as a diff here.

// diffTol is the agreement tolerance, scaled by magnitude for quantities
// (loading percentages) that live in the hundreds.
const diffTol = 1e-9

func close9(a, b float64) bool {
	return math.Abs(a-b) <= diffTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func diffOutage(ref, got *OutageResult) error {
	switch {
	case ref.Branch != got.Branch:
		return fmt.Errorf("branch %d vs %d", ref.Branch, got.Branch)
	case ref.FromBusID != got.FromBusID || ref.ToBusID != got.ToBusID || ref.IsXfmr != got.IsXfmr:
		return fmt.Errorf("identity fields differ")
	case ref.Islanded != got.Islanded:
		return fmt.Errorf("islanded %v vs %v", ref.Islanded, got.Islanded)
	case ref.Converged != got.Converged:
		return fmt.Errorf("converged %v vs %v", ref.Converged, got.Converged)
	case ref.Algorithm != got.Algorithm:
		return fmt.Errorf("algorithm %q vs %q", ref.Algorithm, got.Algorithm)
	case !close9(ref.MaxLoadingPct, got.MaxLoadingPct):
		return fmt.Errorf("max loading %v vs %v", ref.MaxLoadingPct, got.MaxLoadingPct)
	case !close9(ref.MinVoltagePU, got.MinVoltagePU):
		return fmt.Errorf("min voltage %v vs %v", ref.MinVoltagePU, got.MinVoltagePU)
	case !close9(ref.LoadShedMW, got.LoadShedMW):
		return fmt.Errorf("load shed %v vs %v", ref.LoadShedMW, got.LoadShedMW)
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

func TestDifferentialViewVsCloneReference(t *testing.T) {
	for _, name := range []string{"case30", "case57", "case118"} {
		t.Run(name, func(t *testing.T) {
			n := cases.MustLoad(name)
			base := solveBase(t, n)
			opts := filledOptions()
			for _, k := range n.InServiceBranches() {
				ref := analyzeClone(n, base, branchOutage(k), opts)
				got := analyzeOne(t, n, base, k, Options{})
				if err := diffOutage(ref, got); err != nil {
					t.Fatalf("%s branch %d: view path diverges from clone reference: %v", name, k, err)
				}
			}
		})
	}
}

// TestDifferentialSweepVsCloneReference pins the full parallel sweep (the
// production entry point: four workers, pooled reusable contexts, slot
// ordering) to a sequential loop of clone-based references, so the
// driver's own logic is checked against code that shares none of it.
func TestDifferentialSweepVsCloneReference(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	got, err := Analyze(n, base, Options{Workers: 4, Pool: NewSweepPool(NewBase)})
	if err != nil {
		t.Fatal(err)
	}
	branches := n.InServiceBranches()
	if len(got.Outages) != len(branches) {
		t.Fatalf("sweep returned %d outages for %d branches", len(got.Outages), len(branches))
	}
	opts := filledOptions()
	for i, k := range branches {
		ref := analyzeClone(n, base, branchOutage(k), opts)
		if err := diffOutage(ref, &got.Outages[i]); err != nil {
			t.Fatalf("outage %d (branch %d): %v", i, k, err)
		}
	}
}
