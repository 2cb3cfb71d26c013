package powerflow_test

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// TestBaseFactorStepMatchesRefactorize pins the base-factor start to the
// factorization it replaces: for every non-islanding N-1 outage of
// case14–300 and 40 seeded non-islanding N-2 pairs of case57 and case118,
// the first Newton direction from the base factor with its Woodbury
// correction must match a fresh refill + Refactorize of the patched
// Jacobian to 1e-9 relative in the ∞-norm.
func TestBaseFactorStepMatchesRefactorize(t *testing.T) {
	check := func(name string, solver *powerflow.ViewSolver, view *model.OutageView, opts powerflow.Options, label string) {
		t.Helper()
		got, want, onBase := solver.StartDirections(view, opts)
		if !onBase {
			t.Fatalf("%s %s: did not start on the base factor", name, label)
		}
		var diff, norm float64
		for i := range want {
			diff = math.Max(diff, math.Abs(got[i]-want[i]))
			norm = math.Max(norm, math.Abs(want[i]))
		}
		if diff > 1e-9*norm {
			t.Fatalf("%s %s: base-factor direction differs by %.3e (‖dx‖∞ %.3e)", name, label, diff, norm)
		}
	}
	for _, name := range []string{"case14", "case30", "case57", "case118", "case300"} {
		n, base, solver, topo := baseFactorFixture(t, name)
		opts := powerflow.Options{EnforceQLimits: true, Warm: &base.Voltages}
		view := model.NewOutageView(n)
		mask := make([]bool, len(n.Branches))
		comp, stack := make([]int, len(n.Buses)), make([]int, len(n.Buses))
		checked := 0
		for k, br := range n.Branches {
			if !br.InService || islandsWithout(topo, mask, k, comp, stack) > 1 {
				continue
			}
			view.Reset()
			view.OutBranch(k)
			check(name, solver, view, opts, "branch "+strconv.Itoa(k))
			checked++
		}
		if checked < 10 {
			t.Fatalf("%s: only %d outages checked", name, checked)
		}
		if name != "case57" && name != "case118" {
			continue
		}
		rng := rand.New(rand.NewSource(25))
		live := n.InServiceBranches()
		for pairs := 0; pairs < 40; {
			a, b := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			if a == b {
				continue
			}
			mask[a], mask[b] = true, true
			split := topo.IslandsMasked(mask, comp, stack) > 1
			mask[a], mask[b] = false, false
			if split {
				continue
			}
			view.Reset()
			view.OutBranch(a)
			view.OutBranch(b)
			check(name, solver, view, opts, "pair "+strconv.Itoa(a)+"+"+strconv.Itoa(b))
			pairs++
		}
	}
}

// TestBaseFactorCapacitanceFallback provokes the unsafe correction: a
// load-free bus fed by one charged line and one of near-zero susceptance
// is left hanging on the weak one when the ordinary line trips. The outage is not
// islanding, but the correction's capacitance matrix is numerically
// singular, so the round must take the refactorize path and still match
// the clone solve.
func TestBaseFactorCapacitanceFallback(t *testing.T) {
	n := cases.MustLoad("case14").Clone()
	hang, last := len(n.Buses), n.Buses[len(n.Buses)-1]
	n.Buses = append(n.Buses, model.Bus{ID: last.ID + 1, Type: model.PQ, Vm: last.Vm, Va: last.Va, VMin: 0.9, VMax: 1.1, BaseKV: last.BaseKV})
	feed := len(n.Branches)
	n.Branches = append(n.Branches,
		model.Branch{From: hang - 1, To: hang, R: 0.01, X: 0.05, B: 0.05, RateMVA: 100, InService: true},
		model.Branch{From: hang - 2, To: hang, X: 1e14, RateMVA: 100, InService: true})
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	solver, err := powerflow.NewViewSolver(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := powerflow.Options{EnforceQLimits: true, Warm: &base.Voltages}
	view := model.NewOutageView(n)
	view.OutBranch(feed)
	if _, _, onBase := solver.StartDirections(view, opts); onBase {
		t.Fatal("a near-singular capacitance matrix was accepted")
	}
	before := solver.Census()
	got, errV := solver.Solve(view, opts)
	after := solver.Census()
	if after.Fallbacks != before.Fallbacks+1 || got.BaseFactorStarts != 0 {
		t.Fatalf("fallback not taken: census %+v → %+v, %d base-factor starts", before, after, got.BaseFactorStarts)
	}
	post := n.Clone()
	post.Branches[feed].InService = false
	want, errC := powerflow.Solve(post, opts)
	if (errV == nil) != (errC == nil) || got.Converged != want.Converged {
		t.Fatalf("view err=%v conv=%v, clone err=%v conv=%v", errV, got.Converged, errC, want.Converged)
	}
	if !want.Converged {
		t.Fatal("the clone solve did not converge; the fixture tests nothing")
	}
	// The hanging bus's own voltage is fixed by neither solve: its rows are
	// so weak that any value meets the mismatch tolerance. Every other bus
	// must agree.
	for i := range n.Buses {
		if i == hang {
			continue
		}
		if d := math.Abs(got.Voltages.Vm[i] - want.Voltages.Vm[i]); d > 1e-9 {
			t.Fatalf("bus %d: Vm differs by %.3e", i, d)
		}
		if d := math.Abs(got.Voltages.Va[i] - want.Voltages.Va[i]); d > 1e-9 {
			t.Fatalf("bus %d: Va differs by %.3e", i, d)
		}
	}
}

// TestViewSolverSteadyStateAllocs pins the allocations of a warm case118
// N-1 solve: the base factor's buffers come with its first build, so a
// solver that has seen a few outages allocates per solve only the result
// record (the Result, its voltage copies and generator outputs).
func TestViewSolverSteadyStateAllocs(t *testing.T) {
	n, base, solver, topo := baseFactorFixture(t, "case118")
	opts := powerflow.Options{EnforceQLimits: true, Warm: &base.Voltages}
	view := model.NewOutageView(n)
	mask := make([]bool, len(n.Branches))
	comp, stack := make([]int, len(n.Buses)), make([]int, len(n.Buses))
	var outages []int
	for k, br := range n.Branches {
		if br.InService && islandsWithout(topo, mask, k, comp, stack) == 1 {
			outages = append(outages, k)
		}
	}
	solve := func(k int) {
		view.Reset()
		view.OutBranch(k)
		if _, err := solver.Solve(view, opts); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range outages {
		solve(k)
	}
	next := 0
	allocs := testing.AllocsPerRun(len(outages), func() {
		solve(outages[next%len(outages)])
		next++
	})
	const want = 5
	if allocs > want {
		t.Fatalf("warm N-1 solve allocates %.1f times, want at most %d", allocs, want)
	}
}

// baseFactorFixture loads the named case with its Q-limited base solve, a
// ViewSolver and the topology for the islanding checks.
func baseFactorFixture(t *testing.T, name string) (*model.Network, *powerflow.Result, *powerflow.ViewSolver, *model.Topology) {
	t.Helper()
	n := cases.MustLoad(name)
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatalf("%s: base solve: %v", name, err)
	}
	solver, err := powerflow.NewViewSolver(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n, base, solver, model.NewTopology(n)
}
