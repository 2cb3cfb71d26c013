package opf

import (
	"math"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/powerflow"
)

func TestSolveDispatchCase14(t *testing.T) {
	n := cases.MustLoad("case14")
	sol, err := SolveDispatch(n, powerflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Solved {
		t.Fatal("dispatch fallback did not solve")
	}
	if sol.Method != MethodDispatch {
		t.Fatalf("method %q", sol.Method)
	}
	loadP, _ := n.TotalLoad()
	if sol.TotalGenMW() < loadP {
		t.Fatalf("generation %v below load %v", sol.TotalGenMW(), loadP)
	}
	// Energy balance: surplus over load equals losses (within the loss
	// iteration's convergence band).
	if math.Abs(sol.TotalGenMW()-loadP-sol.LossMW) > 0.5 {
		t.Fatalf("surplus %v vs losses %v", sol.TotalGenMW()-loadP, sol.LossMW)
	}
}

func TestDispatchIsUpperBoundForACOPF(t *testing.T) {
	// The dispatch fallback ignores network constraints in its economics,
	// but both meet the same load; the true OPF can only beat it by
	// rearranging for losses, so the two costs must be within a few
	// percent on an uncongested case — a strong cross-solver check.
	n := cases.MustLoad("case14")
	ipm, err := SolveACOPF(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ed, err := SolveDispatch(n, powerflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := ed.ObjectiveCost / ipm.ObjectiveCost
	if ratio < 0.97 || ratio > 1.10 {
		t.Fatalf("dispatch cost %v vs IPM %v (ratio %v) outside the expected band",
			ed.ObjectiveCost, ipm.ObjectiveCost, ratio)
	}
}

func TestEconomicDispatchMerit(t *testing.T) {
	n := cases.MustLoad("case14")
	gens := []int{0, 1, 2, 3, 4}
	out, err := economicDispatch(n, gens, 259)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, p := range out {
		g := n.Gens[gens[i]]
		if p < g.PMin-1e-9 || p > g.PMax+1e-9 {
			t.Fatalf("unit %d dispatch %v outside limits", i, p)
		}
		sum += p
	}
	if math.Abs(sum-259) > 1e-6 {
		t.Fatalf("dispatch sums to %v, want 259", sum)
	}
	// Cheap unit 0 (c1=20, small c2) must carry most of the load.
	if out[0] < out[2] || out[0] < out[3] {
		t.Fatalf("merit order violated: %v", out)
	}
}

func TestEconomicDispatchInfeasibleTarget(t *testing.T) {
	n := cases.MustLoad("case14")
	if _, err := economicDispatch(n, []int{0}, 1e6); err == nil {
		t.Fatal("expected error for impossible target")
	}
}

func TestSystemLambdaPositive(t *testing.T) {
	n := cases.MustLoad("case14")
	if l := systemLambda(n, []int{0, 1, 2, 3, 4}, 259); l <= 0 || l > 200 {
		t.Fatalf("system lambda %v implausible", l)
	}
}

func TestSolveDCOPFCase30(t *testing.T) {
	n := cases.MustLoad("case30")
	sol, err := SolveDCOPF(n)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Solved {
		t.Fatal("DCOPF not solved")
	}
	if sol.Method != MethodDCOPF {
		t.Fatalf("method %q", sol.Method)
	}
	loadP, _ := n.TotalLoad()
	// Lossless: generation equals load.
	if math.Abs(sol.TotalGenMW()-loadP) > 0.01 {
		t.Fatalf("DC generation %v != load %v", sol.TotalGenMW(), loadP)
	}
	if sol.MaxThermalLoading > 100.1 {
		t.Fatalf("DC flow limits violated: %v%%", sol.MaxThermalLoading)
	}
	// The DC cost approximates the AC cost from below-ish (no losses).
	ac, err := SolveACOPF(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.ObjectiveCost > ac.ObjectiveCost*1.02 {
		t.Fatalf("DC cost %v exceeds AC cost %v by too much", sol.ObjectiveCost, ac.ObjectiveCost)
	}
}

func TestSolveDCOPFCase118(t *testing.T) {
	n := cases.MustLoad("case118")
	sol, err := SolveDCOPF(n)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Solved || sol.MaxMismatchPU > 1e-6 {
		t.Fatalf("solved=%v mismatch=%v", sol.Solved, sol.MaxMismatchPU)
	}
	for i := range n.Buses {
		if sol.LMP[i] <= 0 {
			t.Fatalf("LMP[%d] = %v not positive", i, sol.LMP[i])
		}
	}
}
