package powerflow

import "gridmind/internal/model"

// SolveFullNewton is the full-Newton reference of the chord kernel: the
// one-shot Newton-Raphson solve of Solve, on a ViewSolver whose rounds take
// every step on a freshly refilled and refactorized Jacobian.
func SolveFullNewton(n *model.Network, opts Options) (*Result, error) {
	opts.Algorithm = NewtonRaphson
	s, err := NewViewSolver(n, nil)
	if err != nil {
		return nil, err
	}
	s.rho = 0
	return s.Solve(model.NewOutageView(n), opts)
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

// BaseFactorPairs returns the column pairs marked in the solver's base
// factor, or -1 before the base factor is built.
func (s *ViewSolver) BaseFactorPairs() int {
	if s.bf.lu == nil {
		return -1
	}
	return s.bf.lu.Pairs()
}

// InjectionsInto exposes injectionsInto to the external tests.
var InjectionsInto = injectionsInto

// Mismatch returns the per-bus complex power mismatch (specified − injected)
// in p.u. for an arbitrary voltage profile, over a fresh Ybus.
func Mismatch(n *model.Network, prof *VoltageProfile) []complex128 {
	y := model.BuildYbus(n)
	c, err := classify(n)
	if err != nil {
		return nil
	}
	v := model.VoltageVector(prof.Vm, prof.Va)
	s := y.Injections(v)
	out := make([]complex128, len(n.Buses))
	for i := range n.Buses {
		out[i] = complex(c.pSpec[i], c.qSpec[i]) - s[i]
	}
	return out
}

// injections evaluates real and reactive nodal injections in p.u. for the
// polar voltage state, iterating only structural nonzeros.
func injections(y *model.Ybus, vm, va []float64) (p, q []float64) {
	p = make([]float64, y.N)
	q = make([]float64, y.N)
	cs := make([]float64, y.N)
	sn := make([]float64, y.N)
	injectionsInto(y, vm, va, cs, sn, p, q)
	return p, q
}
