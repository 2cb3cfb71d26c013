package opf

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// evalPair is the angle-taking form of the pair kernels: the full term at
// θ = thi − thk, as the finite-difference checks below differentiate it.
func evalPair(a, b, vi, vk, thi, thk float64) pairTerm {
	th := thi - thk
	c, s := math.Cos(th), math.Sin(th)
	var t pairTerm
	pairGrad(&t, a, b, vi, vk, c, s)
	pairHess(&t, a, b, vi, vk, c, s)
	return t
}

func TestEvalPairGradientFD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const h = 1e-6
	for trial := 0; trial < 50; trial++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		v := [4]float64{0.2 + rng.Float64(), 0.2 + rng.Float64(), rng.NormFloat64(), rng.NormFloat64()}
		// variable order used by evalPair: θi, θk, Vi, Vk = v[2], v[3], v[0], v[1]
		at := func(p [4]float64) float64 {
			return evalPair(a, b, p[0], p[1], p[2], p[3]).Val
		}
		base := [4]float64{v[0], v[1], v[2], v[3]}
		tm := evalPair(a, b, base[0], base[1], base[2], base[3])
		// evalPair grad order: θi, θk, Vi, Vk maps to base indices 2,3,0,1.
		gradMap := [4]int{2, 3, 0, 1}
		for g := 0; g < 4; g++ {
			pp, pm := base, base
			pp[gradMap[g]] += h
			pm[gradMap[g]] -= h
			fd := (at(pp) - at(pm)) / (2 * h)
			if math.Abs(fd-tm.Grad[g]) > 1e-6*math.Max(1, math.Abs(fd)) {
				t.Fatalf("trial %d grad[%d]: analytic %v fd %v", trial, g, tm.Grad[g], fd)
			}
		}
	}
}

func TestEvalPairHessianFD(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const h = 1e-5
	for trial := 0; trial < 30; trial++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		vi, vk := 0.3+rng.Float64(), 0.3+rng.Float64()
		ti, tk := rng.NormFloat64(), rng.NormFloat64()
		tm := evalPair(a, b, vi, vk, ti, tk)
		grad := func(vi, vk, ti, tk float64) [4]float64 {
			return evalPair(a, b, vi, vk, ti, tk).Grad
		}
		// Perturb each variable in evalPair's block order θi,θk,Vi,Vk.
		perturb := func(idx int, d float64) [4]float64 {
			pvi, pvk, pti, ptk := vi, vk, ti, tk
			switch idx {
			case 0:
				pti += d
			case 1:
				ptk += d
			case 2:
				pvi += d
			case 3:
				pvk += d
			}
			return grad(pvi, pvk, pti, ptk)
		}
		for c := 0; c < 4; c++ {
			gp := perturb(c, h)
			gm := perturb(c, -h)
			for r := 0; r < 4; r++ {
				fd := (gp[r] - gm[r]) / (2 * h)
				if math.Abs(fd-tm.Hess[r][c]) > 1e-5*math.Max(1, math.Abs(fd)) {
					t.Fatalf("trial %d hess[%d][%d]: analytic %v fd %v", trial, r, c, tm.Hess[r][c], fd)
				}
			}
		}
	}
}

// randomizedState returns a mildly perturbed interior state for FD checks.
func randomizedState(a *acopf, rng *rand.Rand) []float64 {
	x, _ := a.initialPoint(nil)
	for i := 0; i < a.nb; i++ {
		x[a.ixVa(i)] += 0.05 * rng.NormFloat64()
		x[a.ixVm(i)] += 0.01 * rng.NormFloat64()
	}
	for p := range a.gens {
		x[a.ixPg(p)] += 0.02 * rng.NormFloat64()
		x[a.ixQg(p)] += 0.02 * rng.NormFloat64()
	}
	return x
}

func TestACOPFJacobianFD(t *testing.T) {
	n := cases.MustLoad("case14")
	a, err := newACOPF(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	x := randomizedState(a, rng)
	ev := a.eval(x)
	const h = 1e-6

	dense := func(rows [][]jentry, nr int) [][]float64 {
		out := make([][]float64, nr)
		for r := range out {
			out[r] = make([]float64, a.nx())
			for _, e := range rows[r] {
				out[r][e.col] += e.val
			}
		}
		return out
	}
	dg := dense(ev.DG, a.ngEq())
	dh := dense(ev.DH, a.nIneq())

	grad := append([]float64(nil), ev.Grad...)
	for c := 0; c < a.nx(); c++ {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[c] += h
		xm[c] -= h
		// eval refills one shared scratch, so the plus-side values must be
		// copied out before the minus-side evaluation overwrites them.
		evp := a.eval(xp)
		gP := append([]float64(nil), evp.G...)
		hP := append([]float64(nil), evp.H...)
		fP := evp.F
		evm := a.eval(xm)
		for r := 0; r < a.ngEq(); r++ {
			fd := (gP[r] - evm.G[r]) / (2 * h)
			if math.Abs(fd-dg[r][c]) > 2e-5*math.Max(1, math.Abs(fd)) {
				t.Fatalf("dG[%d][%d]: analytic %v fd %v", r, c, dg[r][c], fd)
			}
		}
		for r := 0; r < a.nIneq(); r++ {
			fd := (hP[r] - evm.H[r]) / (2 * h)
			if math.Abs(fd-dh[r][c]) > 2e-5*math.Max(1, math.Abs(fd)) {
				t.Fatalf("dH[%d][%d]: analytic %v fd %v", r, c, dh[r][c], fd)
			}
		}
		// Objective gradient.
		fd := (fP - evm.F) / (2 * h)
		if math.Abs(fd-grad[c]) > 1e-4*math.Max(1, math.Abs(fd)) {
			t.Fatalf("grad[%d]: analytic %v fd %v", c, grad[c], fd)
		}
	}
}

func TestACOPFHessianFD(t *testing.T) {
	// Verify ∇²L against finite differences of ∇L = ∇f + dgᵀλ + dhᵀμ on
	// case30 (has flow ratings, so the inequality Hessian is exercised).
	n := cases.MustLoad("case30")
	a, err := newACOPF(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	x := randomizedState(a, rng)
	lam := make([]float64, a.ngEq())
	mu := make([]float64, a.nIneq())
	for i := range lam {
		lam[i] = rng.NormFloat64()
	}
	for i := range mu {
		mu[i] = math.Abs(rng.NormFloat64())
	}

	gradL := func(x []float64) []float64 {
		ev := a.eval(x)
		lx := append([]float64(nil), ev.Grad...)
		addJTVec(lx, ev.DG, lam)
		addJTVec(lx, ev.DH, mu)
		return lx
	}
	// hessian emits ∇²L plus the Gauss terms (μ/z)·∇h∇hᵀ; slacks at +∞
	// weigh the Gauss terms at exactly zero, leaving ∇²L alone.
	z := make([]float64, a.nIneq())
	for i := range z {
		z[i] = math.Inf(1)
	}
	hcoo := sparse.NewCOO(a.nx(), a.nx())
	a.hessian(x, lam, mu, z, &kktSink{fn: hcoo.Add})
	hess := hcoo.ToCSC()

	const h = 1e-6
	// Spot-check a random subset of columns (full check is O(nx²) evals).
	cols := rng.Perm(a.nx())[:25]
	for _, c := range cols {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[c] += h
		xm[c] -= h
		gp := gradL(xp)
		gm := gradL(xm)
		for r := 0; r < a.nx(); r++ {
			fd := (gp[r] - gm[r]) / (2 * h)
			got := hess.At(r, c)
			if math.Abs(fd-got) > 5e-4*math.Max(1, math.Abs(fd)) {
				t.Fatalf("H[%d][%d]: analytic %v fd %v", r, c, got, fd)
			}
		}
	}
}

// hessianBits records one hessian call's emissions as coordinates and
// value bits.
func hessianBits(a *acopf, x, lam, mu, z []float64) [][3]uint64 {
	var out [][3]uint64
	a.hessian(x, lam, mu, z, &kktSink{fn: func(i, j int, v float64) {
		out = append(out, [3]uint64{uint64(i), uint64(j), math.Float64bits(v)})
	}})
	return out
}

// TestHessianTrigCacheKeyedOnAngles pins the trig cache's key: eval at
// x1 fills the cache, and a hessian at a point x2 that eval never saw
// must recompute it, emitting exactly the bits a fresh problem emits at
// x2. A cache keyed on call order would hand the hessian x1's angles.
func TestHessianTrigCacheKeyedOnAngles(t *testing.T) {
	for _, name := range []string{"case30", "case118"} {
		t.Run(name, func(t *testing.T) {
			n := cases.MustLoad(name)
			warm, err := newACOPF(n)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := newACOPF(n)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(12))
			x1 := randomizedState(warm, rng)
			x2 := randomizedState(warm, rng)
			lam := make([]float64, warm.ngEq())
			mu := make([]float64, warm.nIneq())
			z := make([]float64, warm.nIneq())
			for i := range lam {
				lam[i] = rng.NormFloat64()
			}
			for i := range mu {
				mu[i] = math.Abs(rng.NormFloat64())
				z[i] = 0.1 + rng.Float64()
			}
			warm.eval(x1)
			got := hessianBits(warm, x2, lam, mu, z)
			want := hessianBits(fresh, x2, lam, mu, z)
			if len(got) != len(want) {
				t.Fatalf("%d emissions after eval(x1), fresh problem emits %d", len(got), len(want))
			}
			for e := range want {
				if got[e] != want[e] {
					t.Fatalf("emission %d after eval(x1) is %v, fresh problem emits %v", e, got[e], want[e])
				}
			}
		})
	}
}

func TestSolveACOPFCase14(t *testing.T) {
	n := cases.MustLoad("case14")
	sol, err := SolveACOPF(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Solved {
		t.Fatal("not solved")
	}
	// MATPOWER's reference objective for case14 is $8081.53/h; our data
	// is the same, so the optimum must land in a tight window.
	if sol.ObjectiveCost < 7900 || sol.ObjectiveCost > 8300 {
		t.Fatalf("objective %v $/h outside case14 window around 8081", sol.ObjectiveCost)
	}
	if sol.MaxMismatchPU > 1e-4 {
		t.Fatalf("mismatch %v exceeds the 1e-4 p.u. validation gate", sol.MaxMismatchPU)
	}
	// Bounds honored.
	for g, gen := range n.Gens {
		if sol.GenP[g] < gen.PMin-1e-4 || sol.GenP[g] > gen.PMax+1e-4 {
			t.Fatalf("gen %d P %v outside [%v, %v]", g, sol.GenP[g], gen.PMin, gen.PMax)
		}
		if sol.GenQ[g] < gen.QMin-1e-4 || sol.GenQ[g] > gen.QMax+1e-4 {
			t.Fatalf("gen %d Q %v outside [%v, %v]", g, sol.GenQ[g], gen.QMin, gen.QMax)
		}
	}
	for i, b := range n.Buses {
		vm := sol.Voltages.Vm[i]
		if vm < b.VMin-1e-6 || vm > b.VMax+1e-6 {
			t.Fatalf("bus %d voltage %v outside [%v, %v]", i, vm, b.VMin, b.VMax)
		}
	}
	// Generation covers load plus losses.
	loadP, _ := n.TotalLoad()
	if got := sol.TotalGenMW() - loadP; math.Abs(got-sol.LossMW) > 0.05 {
		t.Fatalf("generation surplus %v vs losses %v", got, sol.LossMW)
	}
	// LMPs at load buses must be positive and near marginal costs.
	for i := range n.Buses {
		if sol.LMP[i] < 5 || sol.LMP[i] > 100 {
			t.Fatalf("LMP[%d] = %v $/MWh implausible", i, sol.LMP[i])
		}
	}
}

func TestSolveACOPFCase30RespectsLineLimits(t *testing.T) {
	n := cases.MustLoad("case30")
	sol, err := SolveACOPF(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.MaxThermalLoading > 100.5 {
		t.Fatalf("max loading %v%% violates ratings", sol.MaxThermalLoading)
	}
}

func TestSolveACOPFSyntheticCases(t *testing.T) {
	for _, name := range []string{"case57", "case118"} {
		n := cases.MustLoad(name)
		sol, err := SolveACOPF(n, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sol.Solved {
			t.Fatalf("%s: not solved", name)
		}
		if sol.MaxMismatchPU > 1e-4 {
			t.Fatalf("%s: mismatch %v", name, sol.MaxMismatchPU)
		}
		if sol.MaxThermalLoading > 100.5 {
			t.Fatalf("%s: loading %v%%", name, sol.MaxThermalLoading)
		}
		loadP, _ := n.TotalLoad()
		if sol.TotalGenMW() < loadP {
			t.Fatalf("%s: generation %v below load %v", name, sol.TotalGenMW(), loadP)
		}
	}
}

func TestSolveACOPFCase300(t *testing.T) {
	if testing.Short() {
		t.Skip("case300 OPF in short mode")
	}
	n := cases.MustLoad("case300")
	sol, err := SolveACOPF(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Solved || sol.MaxMismatchPU > 1e-4 {
		t.Fatalf("case300: solved=%v mismatch=%v", sol.Solved, sol.MaxMismatchPU)
	}
}

func TestACOPFCheaperOrEqualCostThanCaseDispatch(t *testing.T) {
	// The optimizer must not be worse than the stored dispatch evaluated
	// at its own cost curves (it re-dispatches to cheaper units).
	n := cases.MustLoad("case118")
	var storedCost float64
	for _, g := range n.Gens {
		if g.InService {
			storedCost += g.Cost.At(g.P)
		}
	}
	sol, err := SolveACOPF(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Allow a small tolerance: stored dispatch ignores losses.
	if sol.ObjectiveCost > storedCost*1.05 {
		t.Fatalf("OPF cost %v much worse than stored dispatch cost %v", sol.ObjectiveCost, storedCost)
	}
}

func TestSolveACOPFInfeasibleReportsFailure(t *testing.T) {
	n := cases.MustLoad("case14")
	// Demand beyond total generation capability.
	for i := range n.Loads {
		n.Loads[i].P *= 5
	}
	sol, err := solveACOPF(n, Options{}, ipmOptions{MaxIter: 60})
	if err == nil && sol.Solved {
		t.Fatal("expected infeasibility to be reported")
	}
}

func TestSolveACOPFNoGens(t *testing.T) {
	n := cases.MustLoad("case14")
	for i := range n.Gens {
		n.Gens[i].InService = false
	}
	if _, err := SolveACOPF(n, Options{}); err == nil {
		t.Fatal("expected error with no in-service generators")
	}
}

func TestAssessQuality(t *testing.T) {
	n := cases.MustLoad("case30")
	sol, err := SolveACOPF(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := AssessQuality(n, sol)
	if q.OverallScore < 5 || q.OverallScore > 10 {
		t.Fatalf("overall score %v implausible for a clean solve", q.OverallScore)
	}
	if q.ConvergenceQuality < 9 {
		t.Fatalf("convergence quality %v for mismatch %v", q.ConvergenceQuality, sol.MaxMismatchPU)
	}
	if len(q.Recommendations) == 0 {
		t.Fatal("no recommendations produced")
	}
	// Unsolved solutions score zero and name the one recovery there is.
	bad := &Solution{Solved: false}
	qb := AssessQuality(n, bad)
	want := []string{"solution did not converge; use the economic-dispatch fallback"}
	if qb.OverallScore != 0 || !slices.Equal(qb.Recommendations, want) {
		t.Fatalf("unsolved quality: score %v, recommendations %q; want 0 and %q", qb.OverallScore, qb.Recommendations, want)
	}
}

func TestIPMOnQP(t *testing.T) {
	// Standalone sanity check of the interior-point core on a tiny QP:
	//   min (x0−1)² + (x1−2)²  s.t.  x0+x1 = 2,  x0 ≥ 0.8
	// The equality-constrained optimum is (0.5, 1.5), so the inequality
	// is strictly active at the solution (0.8, 1.2) with KKT multiplier
	// μ = 1.2 > 0.
	p := &nlp{
		nx: 2, ng: 1, nh: 1,
		x0: []float64{1, 1},
		eval: func(x []float64) *nlpEval {
			return &nlpEval{
				F:    (x[0]-1)*(x[0]-1) + (x[1]-2)*(x[1]-2),
				Grad: []float64{2 * (x[0] - 1), 2 * (x[1] - 2)},
				G:    []float64{x[0] + x[1] - 2},
				DG:   [][]jentry{{{0, 1}, {1, 1}}},
				H:    []float64{0.8 - x[0]},
				DH:   [][]jentry{{{0, -1}}},
			}
		},
		hess: func(x, lam, mu, z []float64, sink *kktSink) {
			sink.emit(0, 0, 2)
			sink.emit(1, 1, 2)
			sink.emit(0, 0, mu[0]/z[0]) // the Gauss term of h = 0.8 − x0
		},
	}
	res, err := solveIPM(p, ipmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-0.8) > 1e-5 || math.Abs(res.X[1]-1.2) > 1e-5 {
		t.Fatalf("QP solution %v, want (0.8, 1.2)", res.X)
	}
	if math.Abs(res.Mu[0]-1.2) > 1e-3 {
		t.Fatalf("multiplier %v, want 1.2", res.Mu[0])
	}
}

func TestWarmStartACOPF(t *testing.T) {
	n := cases.MustLoad("case30")
	cold, err := SolveACOPF(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb demand slightly and re-solve warm-started: the optimizer
	// must converge to the neighbouring optimum in fewer iterations.
	n.Loads[0].P += 2
	coldAgain, err := SolveACOPF(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveACOPF(n, Options{Start: cold})
	if err != nil {
		t.Fatal(err)
	}
	// Warm starts anchor the BASIN (the purpose of Options.Start); the
	// iterates they save are pinned by TestWhatIfGridWarm.
	if math.Abs(warm.ObjectiveCost-coldAgain.ObjectiveCost) > 1e-3*coldAgain.ObjectiveCost {
		t.Fatalf("warm %v vs cold %v landed in different optima", warm.ObjectiveCost, coldAgain.ObjectiveCost)
	}
	if !warm.Solved {
		t.Fatal("warm start failed to converge")
	}
	// A mismatched warm start (wrong network size) falls back safely.
	other := cases.MustLoad("case14")
	sol, err := SolveACOPF(other, Options{Start: cold})
	if err != nil || !sol.Solved {
		t.Fatalf("mismatched warm start must fall back to the case profile: %v", err)
	}
}

func TestIPMEqualityOnly(t *testing.T) {
	// min x² + y² s.t. x + y = 2  →  (1, 1).
	p := &nlp{
		nx: 2, ng: 1, nh: 0,
		x0: []float64{3, -1},
		eval: func(x []float64) *nlpEval {
			return &nlpEval{
				F:    x[0]*x[0] + x[1]*x[1],
				Grad: []float64{2 * x[0], 2 * x[1]},
				G:    []float64{x[0] + x[1] - 2},
				DG:   [][]jentry{{{0, 1}, {1, 1}}},
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
	if math.Abs(res.X[0]-1) > 1e-6 || math.Abs(res.X[1]-1) > 1e-6 {
		t.Fatalf("solution %v, want (1, 1)", res.X)
	}
}

var _ = model.PQ // keep model import for helper extensions
