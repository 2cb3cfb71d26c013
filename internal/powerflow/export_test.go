package powerflow

import "gridmind/internal/model"

// SolveFullNewton is the full-Newton reference of the chord kernel: the
// one-shot Newton-Raphson solve of Solve, with every step taken on a
// freshly refilled and refactorized Jacobian.
func SolveFullNewton(n *model.Network, opts Options) (*Result, error) {
	opts.Algorithm = NewtonRaphson
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 30
	}
	return solveACOuter(n, opts, func(_ *model.Network, y *model.Ybus, c *classification, vm, va []float64, opts Options) (int, int, float64, bool, error) {
		return reducedState(y, c).newtonRound(y, c, vm, va, opts, 0, false)
	})
}

// StartDirections returns the first Newton direction of a solve of view
// twice: from the base factor with its Woodbury correction (onBase false,
// base nil, when the solve would not start there or the correction falls
// back), and from a fresh refill and Refactorize of the working LU.
func (s *ViewSolver) StartDirections(view *model.OutageView, opts Options) (base, direct []float64, onBase bool) {
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	c, fromBase := s.start(view, opts, &Result{})
	defer s.restore()
	st := s.st
	st.setPQ(&c)
	injectionsInto(s.y, s.vm, s.va, st.cs, st.sn, st.p, st.q)
	st.mismatch(&c)
	if fromBase && st.base.correct(s.y, st, s.vm) {
		if err := st.base.solve(st); err != nil {
			panic(err)
		}
		base, onBase = append([]float64(nil), st.dx...), true
	}
	if _, err := st.factorize(s.y, s.vm, opts); err != nil {
		panic(err)
	}
	if err := st.lu.SolveInto(st.dx, st.rhs, st.work); err != nil {
		panic(err)
	}
	return base, append([]float64(nil), st.dx...), onBase
}

// FactorCensus is a Newton state's Jacobian events by cause.
type FactorCensus struct {
	RoundStarts, BaseStarts, Fallbacks, Stalls, BaseBuilds, OneOffs, Repivots int
}

// Census returns the solver's Jacobian events over its life.
func (s *ViewSolver) Census() FactorCensus {
	t := s.st.tally
	return FactorCensus{t.roundStarts, t.baseStarts, t.fallbacks, t.stalls, t.baseBuilds, t.oneOffs, t.repivots}
}
