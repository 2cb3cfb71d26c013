package opf

import (
	"errors"
	"fmt"
	"math"

	"gridmind/internal/sparse"
)

// jentry is one Jacobian row entry: coefficient val at variable col.
type jentry struct {
	col int
	val float64
}

// nlpEval carries a full problem evaluation at one point: objective with
// gradient, equality constraints g(x)=0 and inequality constraints h(x)≤0
// with row-wise sparse Jacobians. The row patterns (columns and their
// order) must depend only on the problem structure, never on x: the
// fixed-pattern KKT path compiles its sparsity from one evaluation and
// refills values through a slot map on all later ones.
type nlpEval struct {
	F    float64
	Grad []float64
	G    []float64
	DG   [][]jentry
	H    []float64
	DH   [][]jentry
}

// nlp describes min f(x) s.t. g(x)=0, h(x)≤0 for the interior-point core.
type nlp struct {
	nx, ng, nh int
	x0         []float64
	eval       func(x []float64) *nlpEval
	// hess emits the primal block of the reduced KKT matrix,
	// M = ∇²f + Σλᵢ∇²gᵢ + Σμᵢ∇²hᵢ + dhᵀ·diag(μ/z)·dh — the Lagrangian
	// Hessian together with the Gauss term of every inequality row — as
	// (row, col, value) triplets; duplicate coordinates accumulate. The
	// emission must be STRUCTURAL: every entry on every call, in the same
	// order, regardless of multiplier values (zeros included) — a
	// value-dependent skip would change the pattern between iterations and
	// corrupt the compiled slot mapping (kktSink checks the count and
	// every coordinate).
	hess func(x, lam, mu, z []float64, sink *kktSink)
	// order, when non-nil, supplies the fill-reducing column pre-order for
	// the compiled KKT pattern (e.g. acopf's constraint-aware supernode
	// ordering). Nil falls back to plain minimum degree.
	order func(m *sparse.CSC) []int
	// duals, when non-nil, seeds the dual point from a previous solve's
	// final multipliers (λ, μ and z sized ng, nh, nh) by the rule at
	// dualFloor; nil seeds it cold.
	duals *Multipliers
}

// kktSolver computes the IPM's Newton directions: solve assembles the
// reduced KKT system (assembleKKT) at iterate (x, λ, μ, z), factors it and
// solves against rhs; resolve solves on that factor again. The
// error text is the IPM's failure message. *kktSystem is the solver; the
// tests substitute a from-scratch reference.
type kktSolver interface {
	solve(p *nlp, ev *nlpEval, x, lam, mu, z, rhs []float64) ([]float64, error)
	// resolve solves against another right-hand side on the factor the
	// last solve left, without refilling or refactoring.
	resolve(rhs []float64) ([]float64, error)
}

// ipmOptions tunes the primal-dual interior-point solver. Zero values
// select the MIPS defaults.
type ipmOptions struct {
	FeasTol, GradTol, CompTol, CostTol float64
	MaxIter                            int
	// kkt, when non-nil, supplies the Newton-direction solver — typically a
	// (possibly pre-compiled) fixed-pattern KKT system, letting
	// warm-started re-solves on the same topology skip pattern compilation
	// and LDLᵀ symbolic analysis. Nil compiles a private kktSystem on the
	// first iteration.
	kkt kktSolver
}

func (o *ipmOptions) fill() {
	if o.FeasTol == 0 {
		o.FeasTol = 1e-6
	}
	if o.GradTol == 0 {
		o.GradTol = 1e-6
	}
	if o.CompTol == 0 {
		o.CompTol = 1e-6
	}
	if o.CostTol == 0 {
		o.CostTol = 1e-6
	}
	if o.MaxIter == 0 {
		o.MaxIter = 150
	}
}

// ipmResult is the raw solver outcome before domain interpretation.
type ipmResult struct {
	X, Lam, Mu, Z []float64
	F             float64
	Iterations    int
	Converged     bool
	FeasCond      float64
	GradCond      float64
	CompCond      float64
	Message       string
}

// errNumerical reports a numerical breakdown inside the IPM.
var errNumerical = errors.New("opf: numerical failure in interior-point step")

// costProgress is the relative cost-decrease convergence measure
// |F − fOld| / (1 + |fOld|). On the first iteration there is no previous
// objective (fOld starts at +Inf) and the raw formula would evaluate to
// Inf/Inf = NaN — which historically failed the convergence conjunction
// only by the accident that NaN compares false. The criterion is
// explicitly "not yet measurable" (+Inf) until two iterates exist, so any
// comparison ordering a future refactor introduces stays safe.
func costProgress(f, fOld float64) float64 {
	if math.IsInf(fOld, 0) {
		return math.Inf(1)
	}
	return math.Abs(f-fOld) / (1 + math.Abs(fOld))
}

// costScale multiplies every objective term a formulation hands to
// solveIPM: value, gradient and Hessian. It is MIPS's and PIPS's cost_mult,
// which MATPOWER's mipsopf_solver and PYPOWER's pipsopf_solver set to
// 1e-4. It keeps the objective's magnitude near that of the constraint
// residuals, so the multipliers, seeded at μ = z = 1, need fewer iterates
// to settle. The F,
// λ and μ that solveIPM returns are scaled by the same factor; the
// solution extractors divide ObjectiveCost and the LMPs by it, so every
// public field stays in $/h and $/MWh.
const costScale = 1e-4

// Mehrotra predictor–corrector constants. floorFactor scales the
// complementarity floor 0.1·CompTol·(1+‖x‖∞)/nh under which no row's
// centring target falls: at the floor the measured complementarity
// zᵀμ/(1+‖x‖∞) sits a decade under CompTol, so convergence is never held
// up by it, while a target that follows σμ down unbounded (σ collapses
// near the optimum) drives μ to about 1e-22 and the KKT factor to a
// singular pivot at tolerances of 1e-10 and tighter. stallIterates is how
// many iterates in a row the target may sit on that floor while the point
// is still infeasible before the solve is declared stalled: an infeasible
// problem otherwise grinds on at the floor to MaxIter.
const (
	floorFactor   = 0.1
	stallIterates = 3
)

// dualFloor is δ of the warm dual seed. When nlp.duals carries a previous
// solve's multipliers, λ is copied from them, each slack starts at
// z = max(z_start, −h(x0), δ) and each inequality multiplier at
// μ = max(μ_start, δ). At an optimum the slack of an active row and the
// multiplier of an inactive one sit near zero, and a row whose activity
// the changed problem flips must first climb off that boundary. Measured
// on the case57 and case118 what-if grids (internal/opf/README.md,
// "Warm-started re-solves"): δ = 1e-2 has the smallest worst case, 9 and
// 10 iterates, and no fallback; at 3e-3 one case118 what-if (bus 83,
// +1 MW) stalls, and at 1e-1 the case118 mean is nearly the cold one.
const dualFloor = 1e-2

// warmMaxIter caps the iterates of a solve seeded from a previous dual
// point (nlp.duals) before SolveACOPF falls back to the primal-only start.
// Every warm solve that converged on the what-if grids of case14–300, the
// sensitivity rows and the SCOPF rounds of case30/57/118 took at most 11;
// the ones that failed there ran 10–62 iterates, one 150, before the
// fallback that fails too. About twice the largest converged count bounds
// that waste.
const warmMaxIter = 20

// solveIPM runs a primal-dual interior-point method in the form of MIPS
// (Wang, Murillo-Sánchez, Zimmerman & Thomas) with Mehrotra's
// predictor–corrector step: slack variables z>0 turn h(x)≤0 into
// h(x)+z=0, a per-row centring target γ enforces z∘μ = γ, and each step
// solves the reduced KKT system
//
//	[ M  dgᵀ ] [Δx  ]   [ −N ]
//	[ dg  0  ] [Δλ  ] = [ −g ]
//
// with M = ∇²L + dhᵀ·diag(μ/z)·dh and N = ∇L + dhᵀ·((γ + μ∘h)/z).
//
// M does not depend on γ, so every iterate factors once and solves
// twice. The predictor (kktSolver.solve: refill, factor, solve with no
// refinement) takes γ = 0, the affine-scaling direction. Full steps to
// the boundary along it give the complementarity μ_aff it would reach,
// and the centring parameter σ = min(1, (μ_aff/μ)³) with μ = zᵀμ/nh. The
// corrector (kktSolver.resolve: solve on the held factor, then the
// refinement step) takes the per-row target
// γᵣ = max(σμ, floor) − Δz_aff,r·Δμ_aff,r, which adds the second-order
// term the affine step leaves in z∘μ, and the fraction-to-boundary step
// (ξ = 0.99995) follows its direction. The floor and the stall exit are
// described at floorFactor.
//
// The KKT sparsity pattern is fixed by the problem structure, so it is
// compiled once (or inherited pre-compiled from a reusable Context) and
// after iteration 0 each step performs only a slot-map value refill, one
// numeric LDLᵀ factorization on the retained symbolic analysis, and
// three allocation-free triangular solves (the predictor's, the
// corrector's and its refinement step's) — no COO construction, no CSC
// compression, no symbolic factorization.
func solveIPM(p *nlp, opts ipmOptions) (*ipmResult, error) {
	opts.fill()
	const (
		xi   = 0.99995 // fraction-to-boundary
		z0   = 1.0
		gam0 = 1.0
	)
	nx, ng, nh := p.nx, p.ng, p.nh
	dim := nx + ng

	x := append([]float64(nil), p.x0...)
	lam := make([]float64, ng)
	z := make([]float64, nh)
	mu := make([]float64, nh)

	ev := p.eval(x)
	if d := p.duals; d != nil {
		copy(lam, d.Lam)
		for r := 0; r < nh; r++ {
			z[r] = max(d.Z[r], -ev.H[r], dualFloor)
			mu[r] = max(d.Mu[r], dualFloor)
		}
	} else {
		for r := 0; r < nh; r++ {
			z[r] = z0
			if ev.H[r] < -z0 {
				z[r] = -ev.H[r]
			}
			mu[r] = z0
			if gam0/z[r] > z0 {
				mu[r] = gam0 / z[r]
			}
		}
	}

	kkt := opts.kkt
	if kkt == nil {
		kkt = &kktSystem{}
	}

	// Per-solve buffers, allocated once and refilled every iteration.
	lx := make([]float64, nx)
	rhs := make([]float64, dim)
	dz := make([]float64, nh)
	dmu := make([]float64, nh)
	gam := make([]float64, nh)

	res := &ipmResult{}
	fOld := math.Inf(1)
	onFloor := 0
	for iter := 0; iter <= opts.MaxIter; iter++ {
		// Lagrangian gradient Lx = ∇f + dgᵀλ + dhᵀμ.
		copy(lx, ev.Grad)
		addJTVec(lx, ev.DG, lam)
		addJTVec(lx, ev.DH, mu)

		// Convergence measures (MIPS normalizations).
		maxH := math.Inf(-1)
		if nh == 0 {
			maxH = 0
		}
		for _, h := range ev.H {
			if h > maxH {
				maxH = h
			}
		}
		xInf := normInf(x)
		feas := math.Max(normInf(ev.G), maxH) / (1 + math.Max(xInf, normInf(z)))
		grad := normInf(lx) / (1 + math.Max(normInf(lam), normInf(mu)))
		zmu := dotVec(z, mu)
		comp := zmu / (1 + xInf)
		cost := costProgress(ev.F, fOld)
		res.Iterations = iter
		res.FeasCond, res.GradCond, res.CompCond = feas, grad, comp
		if feas < opts.FeasTol && grad < opts.GradTol && comp < opts.CompTol && cost < opts.CostTol {
			res.Converged = true
			res.Message = fmt.Sprintf("converged in %d iterations", iter)
			break
		}
		if iter == opts.MaxIter {
			res.Message = fmt.Sprintf("iteration limit %d reached (feas %.2e grad %.2e comp %.2e)",
				opts.MaxIter, feas, grad, comp)
			break
		}
		fOld = ev.F

		// Predictor: the affine-scaling direction, γ = 0.
		clear(gam)
		ipmRHS(rhs, lx, ev, mu, z, gam)
		sol, err := checkedDirection(kkt.solve(p, ev, x, lam, mu, z, rhs))
		if err != nil {
			res.Message = err.Error()
			return res, fmt.Errorf("%w: %s", errNumerical, res.Message)
		}

		if nh > 0 {
			// Centring from the affine step: full steps to the boundary,
			// the complementarity they would reach, σ = (μ_aff/μ)³.
			ipmSlackDirections(dz, dmu, sol[:nx], ev, mu, z, gam)
			alphaP, alphaD := stepToBoundary(z, dz, 1), stepToBoundary(mu, dmu, 1)
			var gapAff float64
			for r := 0; r < nh; r++ {
				gapAff += (z[r] + alphaP*dz[r]) * (mu[r] + alphaD*dmu[r])
			}
			gap := zmu / float64(nh)
			ratio := gapAff / float64(nh) / gap
			target := math.Min(1, ratio*ratio*ratio) * gap
			floor := floorFactor * opts.CompTol * (1 + xInf) / float64(nh)
			if target < floor && feas >= opts.FeasTol {
				onFloor++
			} else {
				onFloor = 0
			}
			target = math.Max(target, floor)
			if onFloor > stallIterates {
				res.Message = fmt.Sprintf("stalled at the complementarity floor (feas %.2e grad %.2e comp %.2e)",
					feas, grad, comp)
				break
			}

			// The corrector's centred, second-order target.
			for r := 0; r < nh; r++ {
				gam[r] = target - dz[r]*dmu[r]
			}
			ipmRHS(rhs, lx, ev, mu, z, gam)
		}

		// Corrector: the refined direction on the held factor. Without
		// inequalities it is the predictor's own right-hand side.
		sol, err = checkedDirection(kkt.resolve(rhs))
		if err != nil {
			res.Message = err.Error()
			return res, fmt.Errorf("%w: %s", errNumerical, res.Message)
		}
		dx := sol[:nx]
		dlam := sol[nx:]
		ipmSlackDirections(dz, dmu, dx, ev, mu, z, gam)

		// Fraction-to-boundary step lengths.
		alphaP, alphaD := stepToBoundary(z, dz, xi), stepToBoundary(mu, dmu, xi)
		for i := range x {
			x[i] += alphaP * dx[i]
		}
		for r := 0; r < nh; r++ {
			z[r] += alphaP * dz[r]
		}
		for i := range lam {
			lam[i] += alphaD * dlam[i]
		}
		for r := 0; r < nh; r++ {
			mu[r] += alphaD * dmu[r]
		}
		ev = p.eval(x)
		if math.IsNaN(ev.F) {
			res.Message = "objective became NaN"
			return res, fmt.Errorf("%w: %s", errNumerical, res.Message)
		}
	}

	res.X, res.Lam, res.Mu, res.Z = x, lam, mu, z
	res.F = ev.F
	if !res.Converged {
		return res, fmt.Errorf("opf: interior point did not converge: %s", res.Message)
	}
	return res, nil
}

// ipmRHS builds the reduced KKT right-hand side [−N ; −g] with
// N = Lx + dhᵀ·((γ + μ∘h)/z) for the per-row centring target gam.
func ipmRHS(rhs, lx []float64, ev *nlpEval, mu, z, gam []float64) {
	nx := len(lx)
	for i := 0; i < nx; i++ {
		rhs[i] = -lx[i]
	}
	for r := range z {
		coef := (gam[r] + mu[r]*ev.H[r]) / z[r]
		for _, a := range ev.DH[r] {
			rhs[a.col] -= coef * a.val
		}
	}
	for i, g := range ev.G {
		rhs[nx+i] = -g
	}
}

// ipmSlackDirections recovers the slack and multiplier directions from
// the primal direction dx: Δz = −h − z − dh·Δx and
// Δμ = −μ + (γ − μ∘Δz)/z for the per-row centring target gam.
func ipmSlackDirections(dz, dmu, dx []float64, ev *nlpEval, mu, z, gam []float64) {
	for r := range z {
		d := -ev.H[r] - z[r]
		for _, a := range ev.DH[r] {
			d -= a.val * dx[a.col]
		}
		dz[r] = d
		dmu[r] = -mu[r] + (gam[r]-mu[r]*d)/z[r]
	}
}

// stepToBoundary is the largest α ≤ 1 with v + α·dv ≥ (1−xi)·v: xi = 1 is
// the full step to the boundary, xi < 1 the fraction-to-boundary rule.
func stepToBoundary(v, dv []float64, xi float64) float64 {
	alpha := 1.0
	for r, d := range dv {
		if d < 0 {
			if a := -xi * v[r] / d; a < alpha {
				alpha = a
			}
		}
	}
	return alpha
}

// checkedDirection passes a kktSolver result through, failing a direction
// with a NaN or infinite entry.
func checkedDirection(sol []float64, err error) ([]float64, error) {
	if err == nil && hasNaN(sol) {
		err = errors.New("NaN in Newton direction")
	}
	return sol, err
}

func dotVec(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func normInf(a []float64) float64 {
	var m float64
	for _, v := range a {
		if x := math.Abs(v); x > m {
			m = x
		}
	}
	return m
}

func hasNaN(a []float64) bool {
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// addJTVec accumulates Jᵀ·w into out for a row-wise Jacobian.
func addJTVec(out []float64, rows [][]jentry, w []float64) {
	for r, row := range rows {
		wr := w[r]
		if wr == 0 {
			continue
		}
		for _, a := range row {
			out[a.col] += wr * a.val
		}
	}
}
