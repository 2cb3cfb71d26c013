package opf

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// TestIPMFixedPatternMatchesReference is the differential harness for the
// fixed-pattern KKT path: the compiled-pattern + static LDLᵀ pipeline must
// reproduce the per-iteration assembly of referenceKKT (COO build, CSC
// compression, a full threshold-pivoting LU each step, in
// reference_test.go) to tight tolerance on every case. The two pipelines
// share the emission code and the IPM loop but nothing of the
// linear-solver plumbing — a different factorization algorithm under a
// different order — so agreement pins ordering, slot mapping, the static
// shift and the refinement step all at once.
func TestIPMFixedPatternMatchesReference(t *testing.T) {
	for _, name := range []string{"case14", "case30", "case57", "case118", "case300"} {
		n := cases.MustLoad(name)
		fixed, err := SolveACOPF(n, Options{})
		if err != nil {
			t.Fatalf("%s fixed: %v", name, err)
		}
		ref, err := solveACOPFReference(n)
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		if !fixed.Solved || !ref.Solved {
			t.Fatalf("%s: solved fixed=%v ref=%v", name, fixed.Solved, ref.Solved)
		}
		if fixed.Iterations != ref.Iterations {
			t.Errorf("%s: iteration paths diverged: %d vs %d", name, fixed.Iterations, ref.Iterations)
		}
		// The two pipelines factor under different algorithms and
		// fill-reducing orderings (LDLᵀ on the constraint-aware supernode
		// order vs LU on the reference's RCM), so elimination roundoff
		// diverges by a few ulps per iteration and compounds over the
		// 8-14 IPM steps; 1e-8 relative still pins the
		// pipelines to far tighter agreement than the 1e-6 convergence
		// tolerance while leaving room for ordering-dependent noise.
		if rel := math.Abs(fixed.ObjectiveCost-ref.ObjectiveCost) / ref.ObjectiveCost; rel > 1e-8 {
			t.Errorf("%s: objective drift %v (fixed %v ref %v)", name, rel, fixed.ObjectiveCost, ref.ObjectiveCost)
		}
		for i := range ref.Voltages.Vm {
			if d := math.Abs(fixed.Voltages.Vm[i] - ref.Voltages.Vm[i]); d > 1e-8 {
				t.Fatalf("%s: Vm[%d] drift %v", name, i, d)
			}
			if d := math.Abs(fixed.Voltages.Va[i] - ref.Voltages.Va[i]); d > 1e-8 {
				t.Fatalf("%s: Va[%d] drift %v", name, i, d)
			}
			if d := math.Abs(fixed.LMP[i] - ref.LMP[i]); d > 1e-6 {
				t.Fatalf("%s: LMP[%d] drift %v", name, i, d)
			}
		}
		for g := range ref.GenP {
			if d := math.Abs(fixed.GenP[g] - ref.GenP[g]); d > 1e-5 {
				t.Fatalf("%s: GenP[%d] drift %v MW", name, g, d)
			}
			if d := math.Abs(fixed.GenQ[g] - ref.GenQ[g]); d > 1e-5 {
				t.Fatalf("%s: GenQ[%d] drift %v MVAr", name, g, d)
			}
		}
	}
}

// solveRaw runs the IPM on a case and returns the problem plus the raw
// converged state (multipliers included), for structural tests.
func solveRaw(t *testing.T, name string) (*acopf, *nlp, *ipmResult) {
	t.Helper()
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
	res, err := solveIPM(p, ipmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return prob, p, res
}

// TestKKTPatternSupersetAtConvergedPoint is the regression test for the
// historical ordering bug: the fill-reducing column order used to be
// computed by RCM on the iteration-0 KKT — where λ is all zero, so the
// value-dependent assembly dropped the entire equality-Hessian block — and
// then reused for every later, denser iteration. The structural-pattern
// compile fixes that by construction; this test asserts the compiled
// pattern covers every numerically-nonzero KKT coordinate at a CONVERGED
// interior point (all μ, λ active), and that the iteration-0 numeric
// pattern really was a strict subset (the bug's trigger).
func TestKKTPatternSupersetAtConvergedPoint(t *testing.T) {
	prob, p, res := solveRaw(t, "case30")
	ev := p.eval(res.X)

	kkt := &kktSystem{}
	lam0 := make([]float64, p.ng)
	mu0 := make([]float64, p.nh)
	z0 := make([]float64, p.nh)
	for i := range z0 {
		z0[i] = 1
	}
	if err := kkt.compile(p, ev, res.X, lam0, mu0, z0); err != nil {
		t.Fatal(err)
	}

	// Every numerically-nonzero coordinate of the converged KKT system must
	// be a structural entry of the compiled pattern.
	dim := p.nx + p.ng
	converged := sparse.NewCOO(dim, dim)
	assembleKKT(p, ev, res.X, res.Lam, res.Mu, res.Z, &kktSink{fn: converged.Add})
	csc := converged.ToCSC()
	missing := 0
	for j := 0; j < dim; j++ {
		csc.ColView(j, func(i int, v float64) {
			if v != 0 && !kkt.mat.Has(i, j) {
				missing++
			}
		})
	}
	if missing > 0 {
		t.Fatalf("compiled pattern misses %d numerically-nonzero entries of the converged KKT", missing)
	}

	// And the old failure mode was real: the numeric pattern at the
	// all-zero-λ iteration-0 point is strictly smaller than the converged
	// one, so an ordering computed from it was computed on the wrong graph.
	iter0 := sparse.NewCOO(dim, dim)
	assembleKKT(p, ev, res.X, lam0, mu0, z0, &kktSink{fn: iter0.Add})
	csc0 := iter0.ToCSC()
	nz := func(m *sparse.CSC) int {
		count := 0
		for j := 0; j < dim; j++ {
			m.ColView(j, func(i int, v float64) {
				if v != 0 {
					count++
				}
			})
		}
		return count
	}
	if n0, nc := nz(csc0), nz(csc); n0 >= nc {
		t.Fatalf("expected iteration-0 numeric pattern (%d nz) strictly smaller than converged (%d nz)", n0, nc)
	}
	_ = prob
}

// TestCostProgressFirstIteration pins the first-iteration cost criterion:
// with no previous objective the measure must be explicitly +Inf — never
// NaN, whose comparison semantics made the old |F−fOld|/(1+|fOld|) pass
// the convergence conjunction only by accident. An explicit +Inf survives
// any reordering of the comparison (cost < tol, !(cost >= tol), ...).
func TestCostProgressFirstIteration(t *testing.T) {
	first := costProgress(42.0, math.Inf(1))
	if math.IsNaN(first) {
		t.Fatal("first-iteration cost criterion is NaN")
	}
	if !math.IsInf(first, 1) {
		t.Fatalf("first-iteration cost criterion = %v, want +Inf", first)
	}
	// The reordered-comparison trap: NaN passes !(x >= tol), +Inf must not.
	if !(first >= 1e-6) {
		t.Fatal("+Inf failed the reordered comparison !(cost >= tol)")
	}
	if got := costProgress(6, 4); math.Abs(got-0.4) > 1e-15 {
		t.Fatalf("steady-state cost measure = %v, want 0.4", got)
	}
}

// TestIPMNoConvergenceOnIterationZero drives the trap end-to-end: an
// unconstrained problem seeded exactly at its optimum satisfies the
// feasibility, gradient and complementarity criteria immediately, so only
// the cost criterion stands between iteration 0 and a declared
// convergence. It must hold the solver for at least one true iteration
// (the cost decrease is unmeasurable until two iterates exist).
func TestIPMNoConvergenceOnIterationZero(t *testing.T) {
	p := &nlp{
		nx: 2, ng: 0, nh: 0,
		x0: []float64{1, 2}, // exact optimum of f
		eval: func(x []float64) *nlpEval {
			return &nlpEval{
				F:    (x[0]-1)*(x[0]-1) + (x[1]-2)*(x[1]-2),
				Grad: []float64{2 * (x[0] - 1), 2 * (x[1] - 2)},
				DG:   [][]jentry{},
				DH:   [][]jentry{},
			}
		},
		hess: func(x, lam, mu, z []float64, sink *kktSink) {
			sink.emit(0, 0, 2)
			sink.emit(1, 1, 2)
		},
	}
	res, err := solveIPM(p, ipmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.Iterations == 0 {
		t.Fatal("converged on iteration 0: the first-iteration cost criterion did not hold")
	}
}

// TestWarmStartReusesCompiledKKT asserts the cross-solve contract: a
// re-solve through the same Context on unchanged topology (rates, loads
// and start point may all differ) skips pattern compilation entirely,
// while a generator-status or branch-topology change recompiles.
func TestWarmStartReusesCompiledKKT(t *testing.T) {
	n := cases.MustLoad("case30")
	ctx := NewContext()
	cold, err := SolveACOPF(n, Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.Compiles(); got != 1 {
		t.Fatalf("cold solve compiled %d patterns, want 1", got)
	}

	// Load change + warm start: same topology, no recompile.
	n.Loads[0].P += 2
	warm, err := SolveACOPF(n, Options{Context: ctx, Start: cold})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Solved {
		t.Fatal("warm re-solve failed")
	}
	if got := ctx.Compiles(); got != 1 {
		t.Fatalf("warm re-solve recompiled: %d compiles, want 1", got)
	}

	// Rating change (the SCOPF tightening move): still no recompile.
	for b := range n.Branches {
		if n.Branches[b].RateMVA > 0 {
			n.Branches[b].RateMVA *= 0.99
		}
	}
	rated, err := SolveACOPF(n, Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.Compiles(); got != 1 {
		t.Fatalf("rating change recompiled: %d compiles, want 1", got)
	}

	// The steady-state iteration contract: every IPM step of the three
	// solves ran exactly one numeric factorization on the one compiled
	// pattern.
	if steps := cold.Iterations + warm.Iterations + rated.Iterations; ctx.kkt.factors != steps {
		t.Fatalf("%d numeric factorizations across %d IPM steps, want one per step", ctx.kkt.factors, steps)
	}

	// Generator status change: different problem structure, must recompile.
	var off int
	for gi := range n.Gens {
		if n.Gens[gi].InService {
			// Switch off a non-slack generator with spare capacity elsewhere.
			if gi != 0 {
				n.Gens[gi].InService = false
				off = gi
				break
			}
		}
	}
	if _, err := SolveACOPF(n, Options{Context: ctx}); err != nil {
		t.Skipf("gen-%d-off case did not solve: %v", off, err)
	}
	if got := ctx.Compiles(); got != 2 {
		t.Fatalf("generator-status change did not recompile: %d compiles, want 2", got)
	}
}

// TestGeneratorMoveInvalidatesCachedKKT pins the nastiest cache-staleness
// mode: moving a generator to a different bus relocates its Pg/Qg border
// entries between equality rows WITHOUT changing any dimension, count or
// Ybus coordinate — the one structural change a count-only check cannot
// see. The compile key must catch it and recompile, and the context-reuse
// solve must agree with a context-free one.
func TestGeneratorMoveInvalidatesCachedKKT(t *testing.T) {
	n := cases.MustLoad("case30")
	ctx := NewContext()
	if _, err := SolveACOPF(n, Options{Context: ctx}); err != nil {
		t.Fatal(err)
	}
	// Move a non-slack generator to a neighbouring bus.
	moved := -1
	for gi := range n.Gens {
		if n.Gens[gi].InService && n.Gens[gi].Bus != n.SlackBus() {
			n.Gens[gi].Bus = (n.Gens[gi].Bus + 1) % len(n.Buses)
			moved = gi
			break
		}
	}
	if moved < 0 {
		t.Fatal("no movable generator")
	}
	viaCtx, errCtx := SolveACOPF(n, Options{Context: ctx})
	if got := ctx.Compiles(); got != 2 {
		t.Fatalf("generator move did not recompile: %d compiles, want 2", got)
	}
	fresh, errFresh := SolveACOPF(n, Options{})
	if (errCtx == nil) != (errFresh == nil) {
		t.Fatalf("context/fresh solves disagree on convergence: %v vs %v", errCtx, errFresh)
	}
	if errCtx == nil {
		if d := math.Abs(viaCtx.ObjectiveCost-fresh.ObjectiveCost) / fresh.ObjectiveCost; d > 1e-9 {
			t.Fatalf("context solve after generator move drifted: rel %v", d)
		}
	}
}

// TestBranchRehomeInvalidatesCachedKKT covers the other count-preserving
// structural change: a PARALLEL rated branch re-homed between bus pairs
// that stay connected through other branches. The Ybus NZ set, the rated
// index list and every dimension are unchanged — only the flow-constraint
// rows' variables move — so the compile key must compare branch
// endpoints to catch it and recompile.
func TestBranchRehomeInvalidatesCachedKKT(t *testing.T) {
	n := cases.MustLoad("case30")
	// Add a rated parallel branch on top of an existing rated corridor.
	src := -1
	for k, br := range n.Branches {
		if br.InService && br.RateMVA > 0 {
			src = k
			break
		}
	}
	if src < 0 {
		t.Fatal("no rated branch")
	}
	par := n.Branches[src]
	n.Branches = append(n.Branches, par)
	moved := len(n.Branches) - 1
	// A different, already-connected bus pair to re-home onto.
	dst := -1
	for k, br := range n.Branches[:moved] {
		if br.InService && (br.From != par.From || br.To != par.To) {
			dst = k
			break
		}
	}
	if dst < 0 {
		t.Fatal("no re-home target")
	}

	ctx := NewContext()
	if _, err := SolveACOPF(n, Options{Context: ctx}); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Compiles(); got != 1 {
		t.Fatalf("cold solve compiled %d patterns, want 1", got)
	}

	n.Branches[moved].From = n.Branches[dst].From
	n.Branches[moved].To = n.Branches[dst].To
	viaCtx, errCtx := SolveACOPF(n, Options{Context: ctx})
	if got := ctx.Compiles(); got != 2 {
		t.Fatalf("branch re-home did not recompile: %d compiles, want 2", got)
	}
	fresh, errFresh := SolveACOPF(n, Options{})
	if (errCtx == nil) != (errFresh == nil) {
		t.Fatalf("context/fresh solves disagree on convergence: %v vs %v", errCtx, errFresh)
	}
	if errCtx == nil {
		if d := math.Abs(viaCtx.ObjectiveCost-fresh.ObjectiveCost) / fresh.ObjectiveCost; d > 1e-9 {
			t.Fatalf("context solve after branch re-home drifted: rel %v", d)
		}
	}
}

// TestBlockOrderingMatchesMinDegree is the differential test for the
// constraint-aware KKT ordering: factoring and solving the SAME converged
// KKT system under acopf's supernode quotient order and under plain
// scalar minimum degree must produce Newton directions agreeing to 1e-9
// relative — the ordering may only change roundoff, never the linear
// algebra. It also pins the LDLᵀ fill of the block ordering: within 1.2×
// of scalar min-degree's on every case (measured 1.19× on case14/30,
// 1.17× on case57, 1.05× on case118 and 0.96× on case300, where it is
// the smaller). The block order stays because it solves faster end to
// end at the same IPM iteration counts; a change that regresses its fill
// should fail loudly here rather than quietly ship a slower factor.
func TestBlockOrderingMatchesMinDegree(t *testing.T) {
	for _, name := range []string{"case14", "case30", "case57", "case118", "case300"} {
		prob, p, res := solveRaw(t, name)
		ev := p.eval(res.X)
		// Unit slacks and multipliers at the converged operating point: the
		// full structural pattern with every block numerically present, but
		// benign μ/z weights — at the true converged state those weights
		// span ~10 orders of magnitude and the resulting conditioning
		// amplifies ordering roundoff past any meaningful tolerance.
		lam := res.Lam
		mu := make([]float64, p.nh)
		z := make([]float64, p.nh)
		for i := range mu {
			mu[i], z[i] = 1, 1
		}

		solveWith := func(order func(m *sparse.CSC) []int) ([]float64, int) {
			q := &nlp{nx: p.nx, ng: p.ng, nh: p.nh, x0: p.x0,
				eval: p.eval, hess: p.hess, order: order}
			kkt := &kktSystem{}
			if err := kkt.compile(q, ev, res.X, lam, mu, z); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rhs := make([]float64, kkt.dim)
			for i := range rhs {
				rhs[i] = math.Sin(float64(i)) // fixed, nontrivial right-hand side
			}
			if _, err := kkt.factorAndSolve(rhs); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sol, err := kkt.resolve(rhs) // the refined direction
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return append([]float64(nil), sol...), kkt.ldl.NNZ()
		}
		blk, nnzBlk := solveWith(prob.kktOrder)
		md, nnzMD := solveWith(nil)

		var scale float64
		for i := range md {
			scale = math.Max(scale, math.Abs(md[i]))
		}
		for i := range md {
			if d := math.Abs(blk[i]-md[i]) / scale; d > 1e-9 {
				t.Fatalf("%s: solution[%d] drift %v between orderings (block %v, min-degree %v)",
					name, i, d, blk[i], md[i])
			}
		}
		if 5*nnzBlk > 6*nnzMD {
			t.Errorf("%s: block ordering fill %d exceeds 1.2 × min-degree's %d", name, nnzBlk, nnzMD)
		}
	}
}

// TestKKTFactorKeepsOrdering pins the fill the static LDLᵀ keeps on the
// saddle-point KKT system. On the last matrix of a converged solve, under
// acopf's supernode order, L must hold at most half the nonzeros of a
// threshold-pivoting LU factored under the same column order, which
// leaves the diagonal in about a third of the columns and fills in behind
// it. Nonzero counts are machine-independent. The iteration counts are
// pinned too, so the cheaper factor cannot be bought with more IPM
// iterations.
func TestKKTFactorKeepsOrdering(t *testing.T) {
	for _, c := range []struct {
		name  string
		iters int
	}{{"case57", 10}, {"case118", 14}, {"case300", 12}} {
		ctx := NewContext()
		sol, err := SolveACOPF(cases.MustLoad(c.name), Options{Context: ctx})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sol.Iterations != c.iters {
			t.Errorf("%s: %d IPM iterations, want %d", c.name, sol.Iterations, c.iters)
		}
		k := ctx.kkt
		lu, err := sparse.Factorize(k.mat, sparse.Options{ColPerm: k.colPerm})
		if err != nil {
			t.Fatalf("%s: LU: %v", c.name, err)
		}
		t.Logf("%s: %d nonzeros in L, %d in the LU factors", c.name, k.ldl.NNZ(), lu.NNZ())
		if 2*k.ldl.NNZ() > lu.NNZ() {
			t.Errorf("%s: L holds %d nonzeros, more than half the LU's %d", c.name, k.ldl.NNZ(), lu.NNZ())
		}
	}
}

// TestContextReportsFactorizations pins the KKT telemetry the engine
// publishes: a cold case118 solve reports one numeric factorization per
// IPM step, and a second read reports nothing new.
func TestContextReportsFactorizations(t *testing.T) {
	ctx := NewContext()
	sol, err := SolveACOPF(cases.MustLoad("case118"), Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if n := ctx.TakeFactorizations(); n != sol.Iterations {
		t.Fatalf("case118 solve reported %d factorizations, want one per IPM step = %d", n, sol.Iterations)
	}
	if n := ctx.TakeFactorizations(); n != 0 {
		t.Fatalf("second read reported %d factorizations, want 0", n)
	}
}

// TestKKTRefillMatchesScratchAssembly cross-checks the slot-map refill
// against an independently assembled CSC at a nontrivial state: every
// coordinate must carry the same accumulated value.
func TestKKTRefillMatchesScratchAssembly(t *testing.T) {
	prob, p, res := solveRaw(t, "case14")
	ev := p.eval(res.X)

	kkt := &kktSystem{}
	if err := kkt.compile(p, ev, res.X, res.Lam, res.Mu, res.Z); err != nil {
		t.Fatal(err)
	}
	if err := kkt.sink.refill(p, ev, res.X, res.Lam, res.Mu, res.Z); err != nil {
		t.Fatal(err)
	}

	dim := p.nx + p.ng
	scratch := sparse.NewCOO(dim, dim)
	assembleKKT(p, ev, res.X, res.Lam, res.Mu, res.Z, &kktSink{fn: scratch.Add})
	want := scratch.ToCSC()
	// The two pipelines sum the same duplicate contributions in different
	// orders (slot accumulation vs sorted-CSC merge), so heavy cancellation
	// can leave ~1e-11 absolute noise; anything larger flags a slot bug.
	for j := 0; j < dim; j++ {
		want.ColView(j, func(i int, v float64) {
			if got := kkt.mat.At(i, j); math.Abs(got-v) > 1e-8*math.Max(1, math.Abs(v)) {
				t.Fatalf("KKT[%d][%d]: refill %v, scratch %v", i, j, got, v)
			}
		})
	}
	_ = prob
}

// driftingNLP is min (x0−1)² + (x1−2)² with no constraints, so its hess is
// the whole KKT assembly. The first hess call (the compile at iteration 0)
// emits (0,0) and (1,1); every later call drifts. With moveCoord it emits
// the second entry at (0,1) instead — same count, one coordinate off —
// and otherwise it drops the second entry, the last emission of the
// assembly, so only the count can tell.
func driftingNLP(moveCoord bool) *nlp {
	calls := 0
	return &nlp{
		nx: 2, x0: []float64{3, -1},
		eval: func(x []float64) *nlpEval {
			return &nlpEval{
				F:    (x[0]-1)*(x[0]-1) + (x[1]-2)*(x[1]-2),
				Grad: []float64{2 * (x[0] - 1), 2 * (x[1] - 2)},
				DG:   [][]jentry{},
				DH:   [][]jentry{},
			}
		},
		hess: func(x, lam, mu, z []float64, sink *kktSink) {
			calls++
			sink.emit(0, 0, 2)
			switch {
			case calls == 1:
				sink.emit(1, 1, 2)
			case moveCoord:
				sink.emit(0, 1, 2)
			}
		},
	}
}

// TestKKTDriftFailsWithinCompilingSolve pins both drift checks of the
// refill sink: an emitter that changes one coordinate, or drops one
// emission, after the pattern was compiled in the same solve must fail
// that solve on iteration 1 with the "drifted" error — not recompile, and
// not surface later as a singular factor. Without the coordinate check
// the moved entry would accumulate into the compiled (1,1) slot and the
// solve would converge; without the count check the dropped entry would
// leave a shifted zero pivot behind.
func TestKKTDriftFailsWithinCompilingSolve(t *testing.T) {
	for _, tc := range []struct {
		name      string
		moveCoord bool
		want      string
	}{
		{"coordinate", true, "drifted from compiled coordinate (1,1)"},
		{"count", false, "emission count drifted: 1 entries, compiled pattern has 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kkt := &kktSystem{}
			res, err := solveIPM(driftingNLP(tc.moveCoord), ipmOptions{kkt: kkt})
			if err == nil {
				t.Fatal("drifting emitter solved without error")
			}
			if !errors.Is(err, errNumerical) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want a numerical failure containing %q", err, tc.want)
			}
			if strings.Contains(err.Error(), "singular") {
				t.Fatalf("drift reported as singularity: %v", err)
			}
			if res.Iterations != 1 || kkt.compiles != 1 {
				t.Fatalf("failed at iteration %d after %d compiles, want iteration 1 of the compiling solve", res.Iterations, kkt.compiles)
			}
		})
	}
}

// solutionHash digests everything a solve reports numerically — iteration
// count, message, objective, voltages, LMPs, dispatch and branch flows —
// in a form that differs whenever any float differs in any bit (%v prints
// the shortest representation that round-trips).
func solutionHash(s *Solution) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%s|%v|%v|%v|%v|%v|%v|%+v", s.Iterations, s.ConvergenceMessage, s.ObjectiveCost,
		s.Voltages.Vm, s.Voltages.Va, s.LMP, s.GenP, s.GenQ, s.Flows)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestContextAlternatingNetworksBitIdentical is the serving pattern of
// case118 what-ifs: one Context moves between two networks of the same
// structure whose loads differ, so its evalScratch — row layout and trig
// cache — is carried from one problem to the other on every solve. Each
// solve must be bit-identical to a context-free solve of its network.
func TestContextAlternatingNetworksBitIdentical(t *testing.T) {
	base, heavy := cases.MustLoad("case118"), cases.MustLoad("case118")
	for i := range heavy.Loads {
		heavy.Loads[i].P *= 1.05
		heavy.Loads[i].Q *= 1.05
	}
	want := map[string]string{}
	nets := map[string]*model.Network{"base": base, "heavy": heavy}
	for name, n := range nets {
		sol, err := SolveACOPF(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[name] = solutionHash(sol)
	}
	if want["base"] == want["heavy"] {
		t.Fatal("the two networks solve identically; the test cannot tell them apart")
	}
	ctx := NewContext()
	for r, name := range []string{"base", "heavy", "base", "heavy"} {
		sol, err := SolveACOPF(nets[name], Options{Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		if got := solutionHash(sol); got != want[name] {
			t.Fatalf("solve %d (%s) through the shared Context hashes %s, context-free %s", r, name, got, want[name])
		}
	}
	if got := ctx.Compiles(); got != 1 {
		t.Fatalf("alternating same-structure networks compiled %d patterns, want 1", got)
	}
}

// perBusCheck is a kktSolver that solves on its kktSystem and, at every
// iterate, holds the refilled KKT matrix entry by entry against perBusKKT,
// the bus-by-bus reference assembly, at the same point. Both sum the same
// products into each slot, only in another order and grouping, so a slot
// summed from n products may differ by at most 2·n·u·Σ|product| (u the
// unit roundoff, 2⁻⁵³): the first-order bound on two summation orders of
// the same n terms. A missing, extra or misplaced term breaks it.
type perBusCheck struct {
	kktSystem
	t        *testing.T
	name     string
	prob     *acopf
	iterates int
	worst    float64 // largest |Δ| over its bound
}

func (c *perBusCheck) solve(p *nlp, ev *nlpEval, x, lam, mu, z, rhs []float64) ([]float64, error) {
	sol, err := c.kktSystem.solve(p, ev, x, lam, mu, z, rhs)
	if err != nil {
		return sol, err
	}
	dim := p.nx + p.ng
	ref, abs, cnt := sparse.NewCOO(dim, dim), sparse.NewCOO(dim, dim), sparse.NewCOO(dim, dim)
	perBusKKT(c.prob, ev, x, lam, mu, z, &kktSink{fn: func(i, j int, v float64) {
		ref.Add(i, j, v)
		abs.Add(i, j, math.Abs(v))
		cnt.Add(i, j, 1)
	}})
	want, sum, terms := ref.ToCSC(), abs.ToCSC(), cnt.ToCSC()
	if want.NNZ() != c.mat.NNZ() {
		c.t.Fatalf("%s iterate %d: %d KKT slots, the per-bus reference has %d", c.name, c.iterates, c.mat.NNZ(), want.NNZ())
	}
	const u = 0x1p-53
	for j := 0; j < dim; j++ {
		want.ColView(j, func(i int, v float64) {
			if !c.mat.Has(i, j) {
				c.t.Fatalf("%s iterate %d: KKT[%d][%d] missing", c.name, c.iterates, i, j)
			}
			d := math.Abs(c.mat.At(i, j) - v)
			bound := 2 * terms.At(i, j) * u * sum.At(i, j)
			if d > bound {
				c.t.Fatalf("%s iterate %d: KKT[%d][%d] = %v, per-bus reference %v: |Δ| %.3g over the bound %.3g",
					c.name, c.iterates, i, j, c.mat.At(i, j), v, d, bound)
			}
			if d > 0 {
				c.worst = math.Max(c.worst, d/bound)
			}
		})
	}
	c.iterates++
	return sol, nil
}

// TestKKTMatchesPerBusReference is the differential test of the pair-walk
// assembly: at every iterate of a cold AC solve of case14–300 the KKT
// matrix the solver factors equals the bus-by-bus reference assembly
// (perBusKKT, reference_test.go) slot for slot, within the summation-order
// bound perBusCheck states. The solves keep their pinned iteration counts.
func TestKKTMatchesPerBusReference(t *testing.T) {
	iters := map[string]int{"case14": 8, "case30": 10, "case57": 10, "case118": 14, "case300": 12}
	for _, name := range cases.Names() {
		prob, err := newACOPF(cases.MustLoad(name))
		if err != nil {
			t.Fatal(err)
		}
		x0, _ := prob.initialPoint(nil)
		p := &nlp{
			nx: prob.nx(), ng: prob.ngEq(), nh: prob.nIneq(),
			x0: x0, eval: prob.eval, hess: prob.hessian, order: prob.kktOrder,
		}
		check := &perBusCheck{t: t, name: name, prob: prob}
		res, err := solveIPM(p, ipmOptions{kkt: check})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Iterations != iters[name] || check.iterates != res.Iterations {
			t.Errorf("%s: %d iterations with %d checked, want %d", name, res.Iterations, check.iterates, iters[name])
		}
		t.Logf("%s: %d iterates checked, worst |Δ| at %.3g of its bound", name, check.iterates, check.worst)
	}
}

// TestKKTEmissionCounts pins how many entries one KKT assembly emits and
// onto how many slots, on the AC OPF of case14–300: one 4×4 block per
// Ybus neighbour pair, the Pg and Vm diagonals, one entry per bound row
// and the equality border. The bus-by-bus emitter the pair walk replaced
// wrote 1,830 / 6,351 / 12,327 / 28,807 / 63,699 entries onto the same
// slots; an emitter that grows back toward it fails here.
func TestKKTEmissionCounts(t *testing.T) {
	want := map[string][2]int{
		"case14": {870, 709}, "case30": {1759, 1443}, "case57": {3367, 2763},
		"case118": {7975, 6443}, "case300": {17667, 14475},
	}
	for _, name := range cases.Names() {
		p, x, lam, mu, z := initialKKTPoint(t, name)
		kkt := &kktSystem{}
		if err := kkt.compile(p, p.eval(x), x, lam, mu, z); err != nil {
			t.Fatal(err)
		}
		if got := [2]int{len(kkt.sink.emits), kkt.mat.NNZ()}; got != want[name] {
			t.Errorf("%s: %d emissions onto %d slots, want %d onto %d", name, got[0], got[1], want[name][0], want[name][1])
		}
	}
}

// TestKKTCompileMatchesMapDedup pins the column-bucket deduplication of
// kktSystem.compile to the hash-map numbering it replaced (compileByMap,
// reference_test.go): every emission lands on the same coordinate and
// slot, in the same order, and the compile pass accumulates the same
// value bits into every slot.
func TestKKTCompileMatchesMapDedup(t *testing.T) {
	for _, name := range cases.Names() {
		p, x, lam, mu, z := initialKKTPoint(t, name)
		ev := p.eval(x)
		kkt := &kktSystem{}
		if err := kkt.compile(p, ev, x, lam, mu, z); err != nil {
			t.Fatal(err)
		}
		emits, vals := compileByMap(p, ev, x, lam, mu, z)
		if len(emits) != len(kkt.sink.emits) {
			t.Fatalf("%s: %d emissions, map reference %d", name, len(kkt.sink.emits), len(emits))
		}
		for e, want := range emits {
			if got := kkt.sink.emits[e]; got != want {
				t.Fatalf("%s: emission %d compiled to %+v, map reference %+v", name, e, got, want)
			}
		}
		got := kkt.mat.Values()
		for s, v := range vals {
			if math.Float64bits(got[s]) != math.Float64bits(v) {
				t.Fatalf("%s: slot %d holds %v, map reference %v", name, s, got[s], v)
			}
		}
	}
}

// initialKKTPoint returns a case's AC OPF problem at the interior point's
// starting x, with multipliers and slacks away from round values: λ in
// [−1, 1], μ and z in [0.5, 1.5].
func initialKKTPoint(t *testing.T, name string) (*nlp, []float64, []float64, []float64, []float64) {
	t.Helper()
	prob, err := newACOPF(cases.MustLoad(name))
	if err != nil {
		t.Fatal(err)
	}
	x0, _ := prob.initialPoint(nil)
	p := &nlp{
		nx: prob.nx(), ng: prob.ngEq(), nh: prob.nIneq(),
		x0: x0, eval: prob.eval, hess: prob.hessian, order: prob.kktOrder,
	}
	lam, mu, z := make([]float64, p.ng), make([]float64, p.nh), make([]float64, p.nh)
	for i := range lam {
		lam[i] = math.Sin(float64(i) + 0.3)
	}
	for r := range mu {
		mu[r] = 1 + 0.5*math.Sin(float64(r))
		z[r] = 1 + 0.5*math.Cos(float64(3*r))
	}
	return p, p.x0, lam, mu, z
}

// scalarLDLCheck is a kktSolver that solves on its kktSystem and, at every
// iterate, holds the factor's solves of the predictor's and the
// corrector's right-hand sides bit for bit against spreadLDL: the same
// LDLᵀ kernels on the same matrix, taken one column at a time.
type scalarLDLCheck struct {
	kktSystem
	t        *testing.T
	name     string
	oracle   *sparse.LDL
	iterates int
}

// spreadLDL factors the KKT matrix mat (order perm, the IPM's shift on its
// first nx columns and equality rows) with every column followed in the
// order by an uncoupled unit column. Nothing else changes in the
// elimination, but no column is its elimination-tree parent's neighbour in
// the order any more, so no quad forms and Factor and SolveInto take every
// column alone: the order of arithmetic of the scalar reference. A
// right-hand side padded with zeros solves to the same bits on its first
// dim entries.
func spreadLDL(t *testing.T, mat *sparse.CSC, perm []int, nx int) *sparse.LDL {
	t.Helper()
	dim := len(perm)
	var ri, ci []int
	for j := 0; j < dim; j++ {
		mat.ColView(j, func(i int, _ float64) {
			ri, ci = append(ri, i), append(ci, j)
		})
		ri, ci = append(ri, dim+j), append(ci, dim+j)
	}
	spread, _ := sparse.CompilePattern(2*dim, 2*dim, ri, ci)
	val := spread.Values()
	for j := 0; j < dim; j++ {
		mat.ColView(j, func(i int, v float64) { val[spread.Pos(i, j)] = v })
		val[spread.Pos(dim+j, dim+j)] = 1
	}
	order := make([]int, 0, 2*dim)
	for _, j := range perm {
		order = append(order, j, dim+j)
	}
	shift := make([]float64, 2*dim)
	for j := 0; j < dim; j++ {
		shift[j] = kktShift
		if j >= nx {
			shift[j] = -kktShift
		}
	}
	f, err := sparse.NewLDL(spread, order, shift)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Factor(spread); err != nil {
		t.Fatal(err)
	}
	return f
}

// same fails c.t unless the current factor and the oracle solve rhs to the
// same bits.
func (c *scalarLDLCheck) same(what string, rhs []float64) {
	dim := c.dim
	got, work := make([]float64, dim), make([]float64, dim)
	if err := c.ldl.SolveInto(got, rhs, work); err != nil {
		c.t.Fatal(err)
	}
	b := make([]float64, 2*dim)
	copy(b, rhs)
	want := make([]float64, 2*dim)
	if err := c.oracle.SolveInto(want, b, make([]float64, 2*dim)); err != nil {
		c.t.Fatal(err)
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			c.t.Fatalf("%s iterate %d %s: x[%d] = %v, one column at a time %v", c.name, c.iterates, what, i, v, want[i])
		}
	}
}

func (c *scalarLDLCheck) solve(p *nlp, ev *nlpEval, x, lam, mu, z, rhs []float64) ([]float64, error) {
	sol, err := c.kktSystem.solve(p, ev, x, lam, mu, z, rhs)
	if err != nil {
		return sol, err
	}
	c.iterates++
	c.oracle = spreadLDL(c.t, c.mat, c.colPerm, p.nx)
	c.same("predictor", rhs)
	return sol, nil
}

func (c *scalarLDLCheck) resolve(rhs []float64) ([]float64, error) {
	c.same("corrector", rhs)
	return c.kktSystem.resolve(rhs)
}

// TestLDLQuadsMatchScalarOnIPMIterates runs the LDLᵀ quad kernels on the
// real interior-point KKT matrices: at every iterate of a cold and a
// warm-started case57 and case118 solve, the factor solves the
// predictor's and the corrector's right-hand sides to the same bits as
// the same matrix factored one column at a time (spreadLDL). The solves
// keep their pinned iteration counts.
func TestLDLQuadsMatchScalarOnIPMIterates(t *testing.T) {
	for _, tc := range []struct {
		name       string
		bus        int
		deltaMW    float64
		cold, warm int
	}{
		{"case57", 8, 4.5, 10, 4},
		{"case118", 60, 4.5, 14, 6},
	} {
		n := cases.MustLoad(tc.name)
		check := &scalarLDLCheck{t: t, name: tc.name + " cold"}
		base, err := solveACOPF(n, Options{}, ipmOptions{kkt: check})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		warm := &scalarLDLCheck{t: t, name: tc.name + " warm"}
		sol, err := solveACOPF(withBusLoad(n, tc.bus, tc.deltaMW), Options{Start: base}, ipmOptions{kkt: warm})
		if err != nil {
			t.Fatalf("%s warm: %v", tc.name, err)
		}
		if check.iterates != tc.cold || warm.iterates != tc.warm || base.Iterations != tc.cold || sol.Iterations != tc.warm {
			t.Errorf("%s: %d cold and %d warm iterates checked (solves took %d and %d), want %d and %d",
				tc.name, check.iterates, warm.iterates, base.Iterations, sol.Iterations, tc.cold, tc.warm)
		}
	}
}
