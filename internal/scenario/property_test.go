package scenario

import (
	"math/rand"
	"reflect"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/obs"
)

// Property/fuzz coverage for the invariants the cascade engine leans on:
// arbitrary patch/restore sequences leave the admittance values bitwise
// intact, Materialize of an arbitrarily-stacked view equals a
// from-scratch mutated clone, and the fast cascade path performs ZERO
// network clones (counter-pinned).

// TestYbusPatchRestoreProperty drives seeded-random stacks of
// PatchBranchOutage/Restore (LIFO, like cascades and ViewSolver.Solve
// apply them) to arbitrary depth and asserts the value array returns
// bitwise to its pristine state after every full unwind — complex
// equality, no tolerance. A single leaked rounding or a wrong slot
// restoration compounds across a cascade's stacked patches, so bitwise
// is the only acceptable contract.
func TestYbusPatchRestoreProperty(t *testing.T) {
	for _, name := range []string{"case30", "case57"} {
		t.Run(name, func(t *testing.T) {
			n := cases.MustLoad(name)
			y := model.BuildYbus(n).Copy()
			pristine := append([]complex128(nil), y.NZv...)
			rng := rand.New(rand.NewSource(1234))

			type frame struct{ p model.BranchPatch }
			for trial := 0; trial < 300; trial++ {
				var stack []frame
				depth := 1 + rng.Intn(6)
				for len(stack) < depth {
					k := rng.Intn(len(n.Branches))
					if p, ok := y.PatchBranchOutage(n, k); ok {
						stack = append(stack, frame{p})
					}
					// Occasionally pop mid-build: interleaved stack shapes,
					// not just straight pushes.
					if len(stack) > 0 && rng.Intn(4) == 0 {
						y.Restore(stack[len(stack)-1].p)
						stack = stack[:len(stack)-1]
					}
				}
				for i := len(stack) - 1; i >= 0; i-- {
					y.Restore(stack[i].p)
				}
				for i := range pristine {
					if y.NZv[i] != pristine[i] {
						t.Fatalf("trial %d: NZv[%d] = %v, pristine %v — patch/restore leaked",
							trial, i, y.NZv[i], pristine[i])
					}
				}
			}
		})
	}
}

// TestMaterializeEqualsCloneProperty builds seeded-random views — stacked
// branch outages, generator outages, dispatch overrides, load scaling,
// in random interleavings with Reset reuse — and asserts Materialize
// equals a from-scratch clone with the identical mutations applied,
// deeply and exactly. This is the contract that lets the cascade
// fallback paths (Q-relaxed retry, collapse shed estimate) operate
// on materialized views interchangeably with clones.
func TestMaterializeEqualsCloneProperty(t *testing.T) {
	for _, name := range []string{"case30", "case57"} {
		t.Run(name, func(t *testing.T) {
			n := cases.MustLoad(name)
			rng := rand.New(rand.NewSource(99))
			view := model.NewOutageView(n) // reused across trials: Reset must fully clear
			for trial := 0; trial < 200; trial++ {
				view.Reset()
				ref := n.Clone()
				for i := 1 + rng.Intn(4); i > 0; i-- {
					k := rng.Intn(len(n.Branches))
					view.OutBranch(k)
					ref.Branches[k].InService = false
				}
				if rng.Intn(2) == 0 {
					g := rng.Intn(len(n.Gens))
					view.OutGen(g)
					ref.Gens[g].InService = false
				}
				if rng.Intn(2) == 0 {
					g := rng.Intn(len(n.Gens))
					p := rng.Float64() * 80
					view.SetGenP(g, p)
					ref.Gens[g].P = p
				}
				if rng.Intn(2) == 0 {
					ls := 0.8 + 0.4*rng.Float64()
					view.ScaleLoads(ls)
					for i := range ref.Loads {
						ref.Loads[i].P *= ls
						ref.Loads[i].Q *= ls
					}
				}
				got := view.Materialize()
				if !reflect.DeepEqual(got.Buses, ref.Buses) ||
					!reflect.DeepEqual(got.Loads, ref.Loads) ||
					!reflect.DeepEqual(got.Gens, ref.Gens) ||
					!reflect.DeepEqual(got.Branches, ref.Branches) ||
					got.BaseMVA != ref.BaseMVA || got.Name != ref.Name {
					t.Fatalf("trial %d: materialized view differs from mutated clone", trial)
				}
			}
		})
	}
}

// TestCascadeZeroClone pins the fast path's allocation discipline with
// the process-wide counters: a full cascade sweep clones and materializes
// no network, its failure escalation included. case30's sweep escalates
// often (Q-relaxed rescues and collapses with their shed estimates), and
// the test requires that it still does, so the failure path is exercised,
// not skipped. Every rescued stage is labelled and counted on
// gridmind_scenario_q_relaxed_total.
func TestCascadeZeroClone(t *testing.T) {
	n := cases.MustLoad("case30")
	base := solveBase(t, n)

	met := obs.NewRegistry()
	c0, m0 := model.CloneCount(), model.MaterializeCount()
	sw, err := Sweep(n, base, Options{Pool: contingency.NewSweepPool(contingency.NewBase), Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if c, m := model.CloneCount()-c0, model.MaterializeCount()-m0; c != 0 || m != 0 {
		t.Fatalf("cascade sweep cloned %d and materialized %d networks, want 0 and 0", c, m)
	}
	var rescued, collapsed int
	for _, r := range sw.Results {
		if r == nil {
			continue
		}
		for _, sg := range r.Stages {
			if sg.QLimitsRelaxed {
				rescued++
			}
		}
		if r.Outcome == OutcomeCollapse {
			collapsed++
		}
	}
	if rescued == 0 || collapsed == 0 {
		t.Fatalf("sweep escalated to %d Q-relaxed stages and %d collapses; the corpus must exercise both", rescued, collapsed)
	}
	if got, _ := met.Value("gridmind_scenario_q_relaxed_total", "kind", "cascade_sweep"); got != float64(rescued) {
		t.Fatalf("Q-relaxed counter at %v, %d stages labelled", got, rescued)
	}
	t.Logf("sweep: 0 clones, 0 materializations over %d seeds, %d Q-relaxed stages, %d collapses", sw.Seeds, rescued, collapsed)
}
