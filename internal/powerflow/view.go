package powerflow

import (
	"fmt"

	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// ViewSolver is a reusable post-outage power flow context over one shared
// immutable base network: the zero-clone fast path of the N-1 sweep.
//
// Instead of deep-cloning the network and rebuilding Ybus, Jacobian pattern
// and LU symbolic analysis per outage, a ViewSolver owns
//
//   - a private value-copy of the base Ybus (pattern shared with the base),
//     patched in place per outage via the rank-1 branch update and restored
//     bitwise afterwards;
//   - the pristine PV/PQ classification, copied into working buffers per
//     solve (Q-limit switching mutates the split);
//   - ONE augmented Newton state of fixed dimension: every non-slack bus
//     carries a magnitude unknown, and buses that are currently PV are
//     pinned by exact identity rows (dVm = 0) with their couplings zeroed.
//     A sweep encounters dozens of distinct PV/PQ splits as Q-limits bind
//     differently per outage; the augmentation makes them all share one
//     compiled Jacobian pattern and one LU symbolic analysis, so every
//     post-outage Newton round starts with refill + Refactorize and then
//     takes chord steps on that factor while the mismatch falls fast (see
//     fixedState.newtonRound) — no pattern work, no symbolic analysis, no
//     allocation in the steady state.
//
// The identity-row trick is exact, not approximate: a pinned row solves
// dVm_i = 0 identically (its off-row couplings are exact zeros, so no
// rounding enters), and the update loop additionally never applies
// magnitude steps to non-PQ buses.
//
// A ViewSolver is NOT safe for concurrent use: sweeps create one per
// worker and share only the immutable base network and the OrderingCache.
type ViewSolver struct {
	base *model.Network
	y    *model.Ybus
	c0   *classification

	// Per-solve working buffers.
	qSpec  []float64
	pvBuf  []int
	pqBuf  []int
	vm, va []float64
	qsc    *qSwitchScratch
	rsc    *resultScratch

	// Generation-view working buffers: generation-touching views re-derive
	// the classification in place (outages/redispatch change pSpec and the
	// reactive aggregates, not topology), so they own spec copies instead
	// of sharing the pristine base arrays.
	pSpecBuf, qMinBuf, qMaxBuf []float64
	hasGenBuf                  []bool
	// rscView tracks whether rsc currently reflects a view fleet and must
	// be reset before the next base-fleet solve.
	rscView bool

	st      *fixedState
	patches []model.BranchPatch
}

// NewViewSolver prepares a solver context for the base network. The base
// must stay unmodified (and its base-case topology unchanged) for the
// lifetime of the solver. baseY, when non-nil, is the base admittance
// matrix to value-copy (sweeps build it once and share the pattern across
// workers); nil builds one from n.
func NewViewSolver(n *model.Network, baseY *model.Ybus) (*ViewSolver, error) {
	c, err := classify(n)
	if err != nil {
		return nil, err
	}
	if baseY == nil {
		baseY = model.BuildYbus(n)
	}
	nb := len(n.Buses)
	s := &ViewSolver{
		base:      n,
		y:         baseY.Copy(),
		c0:        c,
		qSpec:     make([]float64, nb),
		pvBuf:     make([]int, 0, nb),
		pqBuf:     make([]int, 0, nb),
		vm:        make([]float64, nb),
		va:        make([]float64, nb),
		qsc:       newQSwitchScratch(nb),
		rsc:       newResultScratch(n),
		pSpecBuf:  make([]float64, nb),
		qMinBuf:   make([]float64, nb),
		qMaxBuf:   make([]float64, nb),
		hasGenBuf: make([]bool, nb),
	}
	s.st = augmentedState(s.y, nb, c.slack)
	return s, nil
}

// augmentedState builds the Newton kernel over the augmented index map:
// angle columns of the non-slack buses first, then one magnitude column per
// non-slack bus in the same order.
func augmentedState(y *model.Ybus, nb, slack int) *fixedState {
	aPos := make([]int, nb)
	mPos := make([]int, nb)
	na := nb - 1
	pos := 0
	for i := range aPos {
		if i == slack {
			aPos[i], mPos[i] = -1, -1
			continue
		}
		aPos[i], mPos[i] = pos, na+pos
		pos++
	}
	return newFixedState(y, aPos, mPos, 2*na, false)
}

// Base returns the shared base network the solver was built over.
func (s *ViewSolver) Base() *model.Network { return s.base }

// Solve runs the power flow for the view. Branch-outage views take the
// zero-clone patched path. Generation-touching views (outages, redispatch)
// also stay in place: the classification is re-derived from the view's
// effective fleet — gen changes move pSpec and the reactive aggregates,
// never topology — so the same patched Ybus, compiled Jacobian and LU
// symbolic analysis serve them too. Only non-Newton algorithms fall back
// to materializing the view.
func (s *ViewSolver) Solve(view *model.OutageView, opts Options) (*Result, error) {
	if view.Base != s.base {
		return nil, fmt.Errorf("powerflow: view is over a different base network")
	}
	if opts.Algorithm != NewtonRaphson {
		return Solve(view.Materialize(), opts)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 30
	}

	for _, k := range view.BranchesOut() {
		if p, ok := s.y.PatchBranchOutage(s.base, k); ok {
			s.patches = append(s.patches, p)
		}
	}
	defer func() {
		for i := len(s.patches) - 1; i >= 0; i-- {
			s.y.Restore(s.patches[i])
		}
		s.patches = s.patches[:0]
	}()

	var c classification
	vm, va := s.vm, s.va
	if view.HasSpecChanges() {
		// In-place spec path (gen outages, redispatch, load scaling): owned
		// spec buffers derived from the view's effective fleet and demand,
		// result scratch repointed the same way.
		c = s.classifyView(view)
		s.rsc.configureView(s.base, view)
		s.rscView = true
		startVoltagesViewInto(s.base, view, opts, vm, va)
	} else {
		if s.rscView {
			s.rsc.configureBase(s.base)
			s.rscView = false
		}
		// Working classification: immutable specs shared with the pristine
		// copy, the Q-switch-mutated parts (pv/pq membership, qSpec) owned.
		copy(s.qSpec, s.c0.qSpec)
		c = classification{
			slack:   s.c0.slack,
			pv:      append(s.pvBuf[:0], s.c0.pv...),
			pq:      append(s.pqBuf[:0], s.c0.pq...),
			pSpec:   s.c0.pSpec,
			qSpec:   s.qSpec,
			qMinBus: s.c0.qMinBus,
			qMaxBus: s.c0.qMaxBus,
		}
		startVoltagesInto(s.base, opts, vm, va)
	}

	res := &Result{Algorithm: opts.Algorithm}
	const maxQRounds = 6
	for round := 0; ; round++ {
		iter, facts, mis, conv, err := s.st.newtonRound(s.y, &c, vm, va, opts, chordContraction)
		res.Iterations += iter
		res.Factorizations += facts
		res.MaxMismatch = mis
		res.Converged = conv
		if err != nil {
			return res, err
		}
		if !conv {
			finishResultScratch(s.base, s.y, &c, vm, va, res, s.rsc)
			return res, fmt.Errorf("%w after %d iterations (max mismatch %.3e p.u., %v)",
				ErrNotConverged, res.Iterations, mis, opts.Algorithm)
		}
		if !opts.EnforceQLimits || round >= maxQRounds {
			break
		}
		if !switchPVtoPQ(s.y, &c, vm, va, s.qsc) {
			break
		}
	}
	finishResultScratch(s.base, s.y, &c, vm, va, res, s.rsc)
	return res, nil
}

// classifyView rebuilds the PV/PQ classification from the view's effective
// generator fleet into the solver's owned buffers. It replicates
// classify()'s accumulation loops — same visit order, same per-generator
// arithmetic — with the view's status mask and dispatch overrides applied,
// so the specification vectors match what classify would produce on the
// materialized network bitwise. A PV bus whose last in-service unit is
// outaged degrades to PQ here exactly as it would there; the fixed
// augmented Newton state absorbs the different split through its identity
// pinning, so no pattern or symbolic work follows.
func (s *ViewSolver) classifyView(view *model.OutageView) classification {
	n := s.base
	nb := len(n.Buses)
	for i := 0; i < nb; i++ {
		s.pSpecBuf[i], s.qSpec[i] = 0, 0
		s.qMinBuf[i], s.qMaxBuf[i] = 0, 0
		s.hasGenBuf[i] = false
	}
	for gi := range n.Gens {
		if !view.GenInService(gi) {
			continue
		}
		g := view.Gen(gi)
		s.hasGenBuf[g.Bus] = true
		s.pSpecBuf[g.Bus] += g.P / n.BaseMVA
		s.qMinBuf[g.Bus] += g.QMin / n.BaseMVA
		s.qMaxBuf[g.Bus] += g.QMax / n.BaseMVA
	}
	// Demand accumulates under the view's uniform scale. The scaled terms
	// are computed exactly as Materialize stores them (multiply first, then
	// the BaseMVA division), so the spec vectors still match the
	// materialized network bitwise; at scale 1 the multiplication is an
	// exact identity.
	ls := view.LoadScale()
	for _, l := range n.Loads {
		if !l.InService {
			continue
		}
		s.pSpecBuf[l.Bus] -= (l.P * ls) / n.BaseMVA
		s.qSpec[l.Bus] -= (l.Q * ls) / n.BaseMVA
	}
	c := classification{
		slack:   s.c0.slack,
		pv:      s.pvBuf[:0],
		pq:      s.pqBuf[:0],
		pSpec:   s.pSpecBuf,
		qSpec:   s.qSpec,
		qMinBus: s.qMinBuf,
		qMaxBus: s.qMaxBuf,
	}
	for i, b := range n.Buses {
		if i == c.slack {
			continue
		}
		if b.Type == model.PV && s.hasGenBuf[i] {
			c.pv = append(c.pv, i)
		} else {
			c.pq = append(c.pq, i)
		}
	}
	return c
}

// startVoltagesViewInto mirrors startVoltagesInto under the view's
// effective generator statuses: an outaged machine's voltage setpoint must
// not seed the start profile, exactly as on the materialized network.
func startVoltagesViewInto(n *model.Network, view *model.OutageView, opts Options, vm, va []float64) {
	if opts.Warm != nil {
		copy(vm, opts.Warm.Vm)
		copy(va, opts.Warm.Va)
		return
	}
	for i, b := range n.Buses {
		if opts.FlatStart {
			vm[i], va[i] = 1, 0
		} else {
			vm[i], va[i] = b.Vm, b.Va
		}
	}
	for gi := range n.Gens {
		if !view.GenInService(gi) {
			continue
		}
		g := view.Gen(gi)
		if g.VSetpoint > 0 {
			if n.Buses[g.Bus].Type == model.PV || n.Buses[g.Bus].Type == model.Slack {
				vm[g.Bus] = g.VSetpoint
			}
		}
	}
}

// busBlockOrdering computes the fill-reducing column pre-order of the
// augmented Jacobian at bus granularity: minimum-degree on the non-slack
// bus adjacency graph (half the node count, a quarter of the ordering
// work), each bus then expanded to its angle and magnitude columns
// adjacently. The Jacobian is a 2×2-blocked image of the bus graph, so the
// quotient-graph ordering preserves (often improves) fill quality while
// keeping each bus's variables together.
func busBlockOrdering(y *model.Ybus, st *fixedState) []int {
	na := st.dim / 2
	bg := sparse.NewCOO(na, na)
	for _, nz := range y.NZ {
		i, j := nz[0], nz[1]
		if st.aPos[i] >= 0 && st.aPos[j] >= 0 {
			bg.Add(st.aPos[i], st.aPos[j], 1)
		}
	}
	perm := sparse.MinDegree(bg.ToCSC())
	out := make([]int, 0, st.dim)
	for _, p := range perm {
		// Column layout from augmentedState: angle column of the bus at
		// position p is p, its magnitude column is na+p.
		out = append(out, p, na+p)
	}
	return out
}
