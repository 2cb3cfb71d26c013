package powerflow

import (
	"errors"
	"math"

	"gridmind/internal/model"
)

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

// Hypot exposes hypot to the external tests.
var Hypot = hypot

// finishResultRef is the result tail as it was before it read the Newton
// kernel's evaluation: the voltage vector from cmplx.Rect on every bus,
// the complex injections over all buses, and math.Hypot for the loadings.
// It fills fresh buffers, so res never aliases the solver's scratch.
func finishResultRef(n *model.Network, y *model.Ybus, slack int, vm, va []float64, res *Result, sc *resultScratch) {
	nb := len(n.Buses)
	res.Voltages = VoltageProfile{Vm: append([]float64(nil), vm...), Va: append([]float64(nil), va...)}
	v, s := make([]complex128, nb), make([]complex128, nb)
	model.VoltageVectorInto(v, vm, va)
	y.InjectionsInto(s, v)
	sf, st := make([]complex128, len(n.Branches)), make([]complex128, len(n.Branches))
	y.BranchFlowsInto(n, v, sf, st)
	res.Flows = make([]BranchFlow, len(n.Branches))
	res.LossP = 0
	for k := range n.Branches {
		br := &n.Branches[k]
		f := BranchFlow{Branch: k}
		if br.InService {
			f.FromP, f.FromQ = real(sf[k]), imag(sf[k])
			f.ToP, f.ToQ = real(st[k]), imag(st[k])
			res.LossP += f.FromP + f.ToP
			if br.RateMVA > 0 {
				f.LoadingPct = 100 * math.Max(math.Hypot(f.FromP, f.FromQ), math.Hypot(f.ToP, f.ToQ)) / br.RateMVA
			}
		}
		res.Flows[k] = f
	}
	res.GenP = make([]float64, len(n.Gens))
	res.GenQ = make([]float64, len(n.Gens))
	for i := 0; i < nb; i++ {
		gens := sc.gensAt[i]
		if len(gens) == 0 {
			continue
		}
		busGenP := real(s[i])*n.BaseMVA + sc.loadP[i]
		busGenQ := imag(s[i])*n.BaseMVA + sc.loadQ[i]
		if i != slack {
			busGenP = 0
			for _, g := range gens {
				busGenP += sc.genP[g]
			}
		}
		var pCap, qRange float64
		for _, g := range gens {
			pCap += math.Max(n.Gens[g].PMax, 1e-9)
			qRange += math.Max(n.Gens[g].QMax-n.Gens[g].QMin, 1e-9)
		}
		for _, g := range gens {
			gen := n.Gens[g]
			res.GenP[g] = busGenP * math.Max(gen.PMax, 1e-9) / pCap
			share := math.Max(gen.QMax-gen.QMin, 1e-9) / qRange
			res.GenQ[g] = busGenQ * share
		}
	}
	res.MinVm, res.MaxVm = math.Inf(1), math.Inf(-1)
	for i := range n.Buses {
		if vm[i] < res.MinVm {
			res.MinVm = vm[i]
		}
		if vm[i] > res.MaxVm {
			res.MaxVm = vm[i]
		}
	}
}

// SolveAndRef solves view on s and recomputes the result's tail with
// finishResultRef at the returned voltages, over the view's patched Ybus
// and the solver's result tables. The reference is nil when no tail ran
// (the solve failed before a state was reached).
func (s *ViewSolver) SolveAndRef(view *model.OutageView, opts Options) (got, ref *Result, err error) {
	got, err = s.Solve(view, opts)
	if err != nil && !errors.Is(err, ErrNotConverged) {
		return got, nil, err
	}
	for _, k := range view.BranchesOut() {
		if p, ok := s.y.PatchBranchOutage(s.base, k); ok {
			s.patches = append(s.patches, p)
		}
	}
	defer s.restore()
	r := *got
	finishResultRef(s.base, s.y, s.c0.slack, got.Voltages.Vm, got.Voltages.Va, &r, s.rsc)
	return got, &r, err
}
