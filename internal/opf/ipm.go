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
	// hess emits the Hessian of the Lagrangian ∇²f + Σλᵢ∇²gᵢ + Σμᵢ∇²hᵢ as
	// (row, col, value) triplets; duplicate coordinates accumulate. The
	// emission must be STRUCTURAL: every entry on every call, in the same
	// order, regardless of multiplier values (zeros included) — a
	// value-dependent skip would change the pattern between iterations and
	// corrupt the compiled slot mapping (kktSink checks the count and
	// every coordinate).
	hess func(x, lam, mu []float64, sink *kktSink)
	// order, when non-nil, supplies the fill-reducing column pre-order for
	// the compiled KKT pattern (e.g. acopf's constraint-aware supernode
	// ordering). Nil falls back to plain minimum degree.
	order func(m *sparse.CSC) []int
}

// kktSolver computes the IPM's Newton direction: it solves the reduced KKT
// system assembled (assembleKKT) at iterate (x, λ, μ, z) against rhs. The
// error text is the IPM's failure message. *kktSystem is the solver; the
// tests substitute a from-scratch reference.
type kktSolver interface {
	solve(p *nlp, ev *nlpEval, x, lam, mu, z, rhs []float64) ([]float64, error)
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

// solveIPM runs the MIPS-style primal-dual interior-point method
// (Wang, Murillo-Sánchez, Zimmerman & Thomas): slack variables z>0 turn
// h(x)≤0 into h(x)+z=0, a log barrier with parameter γ enforces z>0, and
// each step solves the reduced KKT system
//
//	[ M  dgᵀ ] [Δx  ]   [ −N ]
//	[ dg  0  ] [Δλ  ] = [ −g ]
//
// with M = ∇²L + dhᵀ·diag(μ/z)·dh and N = ∇L + dhᵀ·(γ + μ∘h)/z.
//
// The KKT sparsity pattern is fixed by the problem structure, so it is
// compiled once (or inherited pre-compiled from a reusable Context) and
// after iteration 0 each step performs only a slot-map value refill, a
// numeric LDLᵀ factorization on the retained symbolic analysis, and an
// allocation-free solve with one refinement step — no COO construction,
// no CSC compression, no symbolic factorization.
func solveIPM(p *nlp, opts ipmOptions) (*ipmResult, error) {
	opts.fill()
	const (
		sigma = 0.1     // centering parameter
		xi    = 0.99995 // fraction-to-boundary
		z0    = 1.0
		gam0  = 1.0
	)
	nx, ng, nh := p.nx, p.ng, p.nh
	dim := nx + ng

	x := append([]float64(nil), p.x0...)
	lam := make([]float64, ng)
	z := make([]float64, nh)
	mu := make([]float64, nh)

	ev := p.eval(x)
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
	gamma := gam0
	if nh > 0 {
		gamma = sigma * dotVec(z, mu) / float64(nh)
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

	res := &ipmResult{}
	fOld := math.Inf(1)
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
		feas := math.Max(normInf(ev.G), maxH) / (1 + math.Max(normInf(x), normInf(z)))
		grad := normInf(lx) / (1 + math.Max(normInf(lam), normInf(mu)))
		comp := 0.0
		if nh > 0 {
			comp = dotVec(z, mu) / (1 + normInf(x))
		}
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

		// Reduced KKT right-hand side: [−N ; −g].
		for i := 0; i < nx; i++ {
			rhs[i] = -lx[i]
		}
		for r := 0; r < nh; r++ {
			coef := (gamma + mu[r]*ev.H[r]) / z[r]
			for _, a := range ev.DH[r] {
				rhs[a.col] -= coef * a.val
			}
		}
		for i, g := range ev.G {
			rhs[nx+i] = -g
		}

		// Newton direction.
		sol, err := kkt.solve(p, ev, x, lam, mu, z, rhs)
		if err != nil {
			res.Message = err.Error()
			return res, fmt.Errorf("%w: %s", errNumerical, res.Message)
		}
		dx := sol[:nx]
		dlam := sol[nx:]
		if hasNaN(dx) || hasNaN(dlam) {
			res.Message = "NaN in Newton direction"
			return res, fmt.Errorf("%w: %s", errNumerical, res.Message)
		}

		// Slack and multiplier directions.
		for r := 0; r < nh; r++ {
			d := -ev.H[r] - z[r]
			for _, a := range ev.DH[r] {
				d -= a.val * dx[a.col]
			}
			dz[r] = d
			dmu[r] = -mu[r] + (gamma-mu[r]*d)/z[r]
		}

		// Fraction-to-boundary step lengths.
		alphaP, alphaD := 1.0, 1.0
		for r := 0; r < nh; r++ {
			if dz[r] < 0 {
				if a := -xi * z[r] / dz[r]; a < alphaP {
					alphaP = a
				}
			}
			if dmu[r] < 0 {
				if a := -xi * mu[r] / dmu[r]; a < alphaD {
					alphaD = a
				}
			}
		}
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
		if nh > 0 {
			gamma = sigma * dotVec(z, mu) / float64(nh)
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
