package contingency

import (
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/powerflow"
)

// Worker.ShedToSolve bisects over the worker's own view: each trial
// rescales the view's demand and dispatch and solves on the persistent
// solver, so the estimate allocates no more than its five trial solves.
// The clone-per-trial bisection it replaced added a network copy to every
// trial and trips the bound below.

// stageUnsolvable stages the case30 pair (0, 6) on w: Newton fails on it
// with the Q limits enforced and relaxed, so its record carries a shed
// estimate.
func stageUnsolvable(w *Worker) {
	w.view.Reset()
	w.view.OutBranch(0)
	w.view.OutBranch(6)
}

func TestShedToSolveAllocationBound(t *testing.T) {
	n := cases.MustLoad("case30")
	w := newWorker(n, NewBase(n))
	stageUnsolvable(w)
	if res, _, err := w.SolveOrFallback(powerflow.Options{EnforceQLimits: true}); err == nil && res.Converged {
		t.Fatal("case30 pair (0, 6) solves; pick an unsolvable outage")
	}

	// Replay the bisection trial by trial, measuring each trial solve's
	// own allocations, which are the legitimate cost of the estimate.
	var solveAllocs float64
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 5; iter++ {
		mid := (lo + hi) / 2
		stageUnsolvable(w)
		w.view.ScaleLoads(mid)
		for g, gen := range n.Gens {
			w.view.SetGenP(g, gen.P*mid)
		}
		converged := false
		solveAllocs += testing.AllocsPerRun(1, func() {
			res, err := w.Solve(powerflow.Options{FlatStart: true})
			converged = err == nil && res.Converged
		})
		if converged {
			lo = mid
		} else {
			hi = mid
		}
	}
	loadP, _ := n.TotalLoad()
	want := (1 - lo) * loadP

	stageUnsolvable(w)
	var shed float64
	shedAllocs := testing.AllocsPerRun(2, func() { shed = w.ShedToSolve() })
	if d := shed - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("ShedToSolve = %v MW, the replayed bisection gives %v", shed, want)
	}
	if w.view.LoadScale() != 1 || w.view.Gen(0).P != n.Gens[0].P {
		t.Fatal("ShedToSolve left the view's demand or dispatch scaled")
	}
	// Budget: the five solves plus a small constant. One network copy per
	// trial would add at least five.
	if budget := solveAllocs + 3; shedAllocs > budget {
		t.Fatalf("ShedToSolve allocates %v objects, budget %v (solves account for %v) — did a per-trial copy come back?",
			shedAllocs, budget, solveAllocs)
	}
	t.Logf("shed %.4f MW: %v allocations, %v of them in the trial solves", shed, shedAllocs, solveAllocs)
}
