package opf

import (
	"math"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/sparse"
)

// TestIPMFixedPatternMatchesReference is the differential harness for the
// fixed-pattern KKT path: the compiled-pattern + Refactorize pipeline must
// reproduce the legacy per-iteration assembly (COO build, CSC compression,
// full symbolic LU each step — kept behind the test-only ReferenceKKT
// flag) to tight tolerance on every case. The two pipelines share the
// emission code but nothing of the linear-solver plumbing, so agreement
// pins ordering, slot mapping, refactorization, the pivot-stability
// fallback and the pivot threshold (the reference factors at 0.1) all at
// once.
func TestIPMFixedPatternMatchesReference(t *testing.T) {
	for _, name := range []string{"case14", "case30", "case57"} {
		n := cases.MustLoad(name)
		fixed, err := SolveACOPF(n, Options{})
		if err != nil {
			t.Fatalf("%s fixed: %v", name, err)
		}
		ref, err := SolveACOPF(n, Options{ReferenceKKT: true})
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		if !fixed.Solved || !ref.Solved {
			t.Fatalf("%s: solved fixed=%v ref=%v", name, fixed.Solved, ref.Solved)
		}
		if fixed.Iterations != ref.Iterations {
			t.Errorf("%s: iteration paths diverged: %d vs %d", name, fixed.Iterations, ref.Iterations)
		}
		// The two pipelines factor under different fill-reducing orderings
		// (constraint-aware supernode order vs the reference's RCM), so
		// elimination roundoff diverges by a few ulps per iteration and
		// compounds over the ~25-40 IPM steps; 1e-8 relative still pins the
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
	p := &nlp{
		nx: prob.nx(), ng: prob.ngEq(), nh: prob.nIneq(),
		x0: prob.initialPoint(nil), eval: prob.eval, hess: prob.hessian,
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
	kkt.compile(p, ev, res.X, lam0, mu0, z0)

	// Every numerically-nonzero coordinate of the converged KKT system must
	// be a structural entry of the compiled pattern.
	dim := p.nx + p.ng
	converged := sparse.NewCOO(dim, dim)
	assembleKKT(p, ev, res.X, res.Lam, res.Mu, res.Z, converged.Add)
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
	assembleKKT(p, ev, res.X, lam0, mu0, z0, iter0.Add)
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
		hess: func(x, lam, mu []float64, emit func(i, j int, v float64)) {
			emit(0, 0, 2)
			emit(1, 1, 2)
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
	if _, err := SolveACOPF(n, Options{Context: ctx}); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Compiles(); got != 1 {
		t.Fatalf("rating change recompiled: %d compiles, want 1", got)
	}

	// The steady-state iteration contract: across all solves so far, every
	// KKT step after the first factorization rode Refactorize except for
	// pivot-stability fallbacks, which must be the rare exception.
	if ctx.kkt.refactors <= ctx.kkt.factors {
		t.Fatalf("Refactorize is not the steady state: %d refactors vs %d full factorizations",
			ctx.kkt.refactors, ctx.kkt.factors)
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
// see. The signature must catch it and recompile, and the context-reuse
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
// rows' variables move — so the signature must compare rated-branch
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
// algebra. It also pins the point of the exercise: the block ordering's
// factor fill must be strictly below scalar min-degree's on every case
// (measured 11-69% fewer LU nonzeros on case14-case118); an "improvement"
// that regresses fill on any standard case should fail loudly here rather
// than quietly ship a slower factorization.
func TestBlockOrderingMatchesMinDegree(t *testing.T) {
	for _, name := range []string{"case14", "case30", "case57", "case118"} {
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
			kkt.compile(q, ev, res.X, lam, mu, z)
			rhs := make([]float64, kkt.dim)
			for i := range rhs {
				rhs[i] = math.Sin(float64(i)) // fixed, nontrivial right-hand side
			}
			sol, err := kkt.factorAndSolve(rhs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return append([]float64(nil), sol...), kkt.lu.NNZ()
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
		if nnzBlk >= nnzMD {
			t.Errorf("%s: block ordering fill %d is not below min-degree %d", name, nnzBlk, nnzMD)
		}
	}
}

// TestKKTFactorKeepsOrdering pins what the default pivot threshold buys on
// the saddle-point KKT system. On the last matrix of a converged solve,
// factored under acopf's supernode order, the default threshold must keep
// at most 80% of the factor nonzeros of DiagPreference 0.1, which rejects
// about half of the diagonal pivots and with them the order. Nonzero
// counts are machine-independent. The iteration counts are pinned too, so
// the cheaper factor cannot be bought with more IPM iterations.
func TestKKTFactorKeepsOrdering(t *testing.T) {
	for _, c := range []struct {
		name  string
		iters int
	}{{"case57", 38}, {"case118", 70}, {"case300", 55}} {
		ctx := NewContext()
		sol, err := SolveACOPF(cases.MustLoad(c.name), Options{Context: ctx})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sol.Iterations != c.iters {
			t.Errorf("%s: %d IPM iterations, want %d", c.name, sol.Iterations, c.iters)
		}
		k := ctx.kkt
		nnz := func(tol float64) int {
			lu, err := sparse.Factorize(k.mat, sparse.Options{ColPerm: k.colPerm, DiagPreference: tol})
			if err != nil {
				t.Fatalf("%s: DiagPreference %v: %v", c.name, tol, err)
			}
			return lu.NNZ()
		}
		def, strict := nnz(0), nnz(0.1)
		t.Logf("%s: factor nonzeros %d at the default threshold, %d at 0.1", c.name, def, strict)
		if 5*def > 4*strict {
			t.Errorf("%s: factor nonzeros %d at the default threshold exceed 0.8 × %d at 0.1", c.name, def, strict)
		}
	}
}

// TestContextReportsFactorizations pins the KKT telemetry the engine
// publishes: a cold case118 solve refactorizes and repivots, every full
// factorization after the first is a repivot, and a second read reports
// nothing new.
func TestContextReportsFactorizations(t *testing.T) {
	ctx := NewContext()
	if _, err := SolveACOPF(cases.MustLoad("case118"), Options{Context: ctx}); err != nil {
		t.Fatal(err)
	}
	refactors, repivots := ctx.TakeFactorizations()
	if refactors == 0 || repivots == 0 {
		t.Fatalf("case118 solve reported %d refactorizations and %d repivots, want both > 0", refactors, repivots)
	}
	if refactors != ctx.kkt.refactors || repivots != ctx.kkt.factors-1 {
		t.Fatalf("reported %d/%d, want %d refactorizations and factors−1 = %d repivots",
			refactors, repivots, ctx.kkt.refactors, ctx.kkt.factors-1)
	}
	if r, p := ctx.TakeFactorizations(); r != 0 || p != 0 {
		t.Fatalf("second read reported %d/%d, want 0/0", r, p)
	}
}

// TestKKTRefillMatchesScratchAssembly cross-checks the slot-map refill
// against an independently assembled CSC at a nontrivial state: every
// coordinate must carry the same accumulated value.
func TestKKTRefillMatchesScratchAssembly(t *testing.T) {
	prob, p, res := solveRaw(t, "case14")
	ev := p.eval(res.X)

	kkt := &kktSystem{}
	kkt.compile(p, ev, res.X, res.Lam, res.Mu, res.Z)
	if err := kkt.refill(p, ev, res.X, res.Lam, res.Mu, res.Z); err != nil {
		t.Fatal(err)
	}

	dim := p.nx + p.ng
	scratch := sparse.NewCOO(dim, dim)
	assembleKKT(p, ev, res.X, res.Lam, res.Mu, res.Z, scratch.Add)
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
