package powerflow_test

import (
	"math"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// TestViewSolverMatchesCloneSolve is the powerflow half of the
// differential harness: for every non-islanding outage, the zero-clone
// patched-Ybus solve must reproduce the clone-based solve — voltages and
// flows — to 1e-9.
func TestViewSolverMatchesCloneSolve(t *testing.T) {
	for _, name := range []string{"case30", "case57"} {
		n := cases.MustLoad(name)
		base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
		if err != nil {
			t.Fatalf("%s: base solve: %v", name, err)
		}
		solver, err := powerflow.NewViewSolver(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		topo := model.NewTopology(n)
		comp := make([]int, len(n.Buses))
		stack := make([]int, len(n.Buses))
		mask := make([]bool, len(n.Branches))
		view := model.NewOutageView(n)
		checked := 0
		for k, br := range n.Branches {
			if !br.InService || islandsWithout(topo, mask, k, comp, stack) > 1 {
				continue
			}
			view.Reset()
			view.OutBranch(k)
			opts := powerflow.Options{EnforceQLimits: true, Warm: base.Voltages.Clone()}
			got, errV := solver.Solve(view, opts)
			post := n.Clone()
			post.Branches[k].InService = false
			want, errC := powerflow.Solve(post, powerflow.Options{EnforceQLimits: true, Warm: base.Voltages.Clone()})
			if (errV == nil) != (errC == nil) || got.Converged != want.Converged {
				t.Fatalf("%s branch %d: view err=%v conv=%v, clone err=%v conv=%v",
					name, k, errV, got.Converged, errC, want.Converged)
			}
			if !want.Converged {
				continue
			}
			const tol = 1e-9
			for i := range n.Buses {
				if d := math.Abs(got.Voltages.Vm[i] - want.Voltages.Vm[i]); d > tol {
					t.Fatalf("%s branch %d bus %d: Vm differs by %.3e", name, k, i, d)
				}
				if d := math.Abs(got.Voltages.Va[i] - want.Voltages.Va[i]); d > tol {
					t.Fatalf("%s branch %d bus %d: Va differs by %.3e", name, k, i, d)
				}
			}
			for b := range n.Branches {
				g, w := got.Flows[b], want.Flows[b]
				if d := math.Abs(g.FromP-w.FromP) + math.Abs(g.FromQ-w.FromQ) +
					math.Abs(g.ToP-w.ToP) + math.Abs(g.ToQ-w.ToQ); d > 4e-9*math.Max(1, math.Abs(w.FromP)) {
					t.Fatalf("%s branch %d flow on %d differs by %.3e", name, k, b, d)
				}
			}
			checked++
		}
		if checked < 10 {
			t.Fatalf("%s: only %d outages checked", name, checked)
		}
	}
}

// forEachOutage solves every non-islanding branch outage of the named case
// at the given load scale through one ViewSolver, warm-started from the
// Q-limited base solve of the scaled network like a sweep, hands each
// view result with its materialized network and options to check, and
// returns the solver.
func forEachOutage(t *testing.T, name string, scale float64, check func(k int, got *powerflow.Result, errV error, post *model.Network, opts powerflow.Options)) *powerflow.ViewSolver {
	t.Helper()
	n := cases.MustLoad(name)
	view := model.NewOutageView(n)
	view.ScaleLoads(scale)
	base, err := powerflow.Solve(view.Materialize(), powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatalf("%s x%.1f: base solve: %v", name, scale, err)
	}
	solver, err := powerflow.NewViewSolver(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	topo := model.NewTopology(n)
	comp := make([]int, len(n.Buses))
	stack := make([]int, len(n.Buses))
	mask := make([]bool, len(n.Branches))
	for k, br := range n.Branches {
		if !br.InService || islandsWithout(topo, mask, k, comp, stack) > 1 {
			continue
		}
		view.Reset()
		view.ScaleLoads(scale)
		view.OutBranch(k)
		opts := powerflow.Options{EnforceQLimits: true, Warm: &base.Voltages}
		got, errV := solver.Solve(view, opts)
		check(k, got, errV, view.Materialize(), opts)
	}
	return solver
}

// TestChordKeepsNewtonClasses pins the chord steps of the Newton kernel to
// full Newton: every outage the sweeps' view path solves must reach the
// same convergence verdict and, when converged, the same voltages (1e-6)
// as the refactorize-every-step reference on the materialized network.
func TestChordKeepsNewtonClasses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
	}{
		{"case14", 1}, {"case30", 1}, {"case57", 1}, {"case118", 1}, {"case300", 1},
		{"case57", 1.1}, {"case118", 1.1},
	} {
		checked := 0
		// The reference solves share one ordering cache, as a sweep does;
		// any column order is exact, so this only skips the ordering work.
		reorder := powerflow.NewOrderingCache()
		forEachOutage(t, tc.name, tc.scale, func(k int, got *powerflow.Result, errV error, post *model.Network, opts powerflow.Options) {
			opts.Reorder = reorder
			want, errR := powerflow.SolveFullNewton(post, opts)
			if (errV == nil) != (errR == nil) || got.Converged != want.Converged {
				t.Fatalf("%s x%.1f branch %d: chord err=%v conv=%v, full Newton err=%v conv=%v",
					tc.name, tc.scale, k, errV, got.Converged, errR, want.Converged)
			}
			checked++
			if !want.Converged {
				return
			}
			const tol = 1e-6
			for i := range post.Buses {
				if d := math.Abs(got.Voltages.Vm[i] - want.Voltages.Vm[i]); d > tol {
					t.Fatalf("%s x%.1f branch %d bus %d: Vm differs by %.3e", tc.name, tc.scale, k, i, d)
				}
				if d := math.Abs(got.Voltages.Va[i] - want.Voltages.Va[i]); d > tol {
					t.Fatalf("%s x%.1f branch %d bus %d: Va differs by %.3e", tc.name, tc.scale, k, i, d)
				}
			}
		})
		if checked < 10 {
			t.Fatalf("%s x%.1f: only %d outages checked", tc.name, tc.scale, checked)
		}
	}
}

// TestChordFactorizationRatio pins the chord gain with a counter instead of
// a timing: over the case300 N-1 outages, at most one step in three may
// refactorize the Jacobian (full Newton refactorizes every step).
func TestChordFactorizationRatio(t *testing.T) {
	var steps, facts int
	forEachOutage(t, "case300", 1, func(k int, got *powerflow.Result, errV error, _ *model.Network, _ powerflow.Options) {
		if errV != nil {
			t.Fatalf("branch %d: %v", k, errV)
		}
		steps += got.Iterations
		facts += got.Factorizations
	})
	t.Logf("case300 N-1: %d steps, %d factorizations (ratio %.3f)", steps, facts, float64(facts)/float64(steps))
	if facts == 0 || 3*facts > steps {
		t.Fatalf("%d factorizations over %d steps, want at most one in three", facts, steps)
	}
}

// TestN1FactorizationCensus pins the base-factor gain with counters: over
// the case300 N-1 outages, at least 95% of the solves must start on the
// base factor, and every factorization left must be a Q-limit round start,
// a chord stall, a base-factor build, a one-off start state's J0 or a
// fallback from an unsafe correction (or the Repivot behind one of them).
func TestN1FactorizationCensus(t *testing.T) {
	var outages, steps, facts, baseStarts int
	solver := forEachOutage(t, "case300", 1, func(k int, got *powerflow.Result, errV error, _ *model.Network, _ powerflow.Options) {
		if errV != nil {
			t.Fatalf("branch %d: %v", k, errV)
		}
		outages++
		steps += got.Iterations
		facts += got.Factorizations
		baseStarts += got.BaseFactorStarts
	})
	c := solver.Census()
	t.Logf("case300 N-1: %d outages, %d steps, %d factorizations, %d base-factor starts; census %+v",
		outages, steps, facts, baseStarts, c)
	if c.BaseStarts != baseStarts {
		t.Fatalf("results report %d base-factor starts, the solver counted %d", baseStarts, c.BaseStarts)
	}
	if 100*baseStarts < 95*outages {
		t.Fatalf("%d base-factor starts over %d outages, want at least 95%%", baseStarts, outages)
	}
	if limit := c.RoundStarts + c.Stalls + c.BaseBuilds + c.OneOffs + c.Fallbacks + c.Repivots; facts > limit {
		t.Fatalf("%d factorizations, but only %d Q-limit round starts, chord stalls, base builds, one-off starts, fallbacks and repivots", facts, limit)
	}
}

// TestViewSolverRestoresBetweenSolves verifies the rank-1 patches leave no
// residue: solving outage A, then the empty view, reproduces the base
// solution exactly.
func TestViewSolverRestoresBetweenSolves(t *testing.T) {
	n := cases.MustLoad("case30")
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	solver, err := powerflow.NewViewSolver(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	view := model.NewOutageView(n)
	view.OutBranch(3)
	if _, err := solver.Solve(view, powerflow.Options{EnforceQLimits: true}); err != nil {
		t.Fatal(err)
	}
	view.Reset()
	again, err := solver.Solve(view, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Buses {
		if math.Abs(again.Voltages.Vm[i]-base.Voltages.Vm[i]) > 1e-12 {
			t.Fatalf("bus %d: base solution not reproduced after patch/restore", i)
		}
	}
}

// TestViewSolverGenChangeFallsBack checks that generation-touching views
// are solved correctly through the materialization fallback.
func TestViewSolverGenChangeFallsBack(t *testing.T) {
	n := cases.MustLoad("case30")
	solver, err := powerflow.NewViewSolver(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	view := model.NewOutageView(n)
	// Nudge one non-slack unit's dispatch; the view now has gen changes.
	gi := -1
	slack := n.SlackBus()
	for g, gen := range n.Gens {
		if gen.InService && gen.Bus != slack {
			gi = g
			break
		}
	}
	if gi < 0 {
		t.Skip("no non-slack generator")
	}
	view.SetGenP(gi, n.Gens[gi].P*0.9)
	got, err := solver.Solve(view, powerflow.Options{EnforceQLimits: true})
	if err != nil || !got.Converged {
		t.Fatalf("gen-change view solve: %v", err)
	}
	want, err := powerflow.Solve(view.Materialize(), powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Buses {
		if math.Abs(got.Voltages.Vm[i]-want.Voltages.Vm[i]) > 1e-12 {
			t.Fatal("gen-change fallback diverges from direct solve")
		}
	}
}

// TestViewSolverRejectsForeignView guards the base-identity contract.
func TestViewSolverRejectsForeignView(t *testing.T) {
	n := cases.MustLoad("case30")
	solver, err := powerflow.NewViewSolver(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := cases.MustLoad("case30")
	if _, err := solver.Solve(model.NewOutageView(other), powerflow.Options{}); err == nil {
		t.Fatal("expected rejection of a view over a different base")
	}
}

// islandsWithout counts the islands with branch k removed, through a
// one-hot mask (all false on entry and on return).
func islandsWithout(topo *model.Topology, mask []bool, k int, comp, stack []int) int {
	mask[k] = true
	defer func() { mask[k] = false }()
	return topo.IslandsMasked(mask, comp, stack)
}
