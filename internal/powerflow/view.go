package powerflow

import (
	"fmt"

	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// ViewSolver is the package's one AC power-flow solver: a reusable context
// over one shared immutable base network that solves outage views of it
// with no network copy. Outage studies keep one per worker; the one-shot
// Solve runs a throwaway one over an empty view, so sweeps and one-shot
// solves share the solve loop, the index map and the Newton kernel.
//
// Instead of deep-cloning the network and rebuilding Ybus, Jacobian pattern
// and LU symbolic analysis per outage, a ViewSolver owns
//
//   - a private Ybus (built for it, or a value-copy of a shared base whose
//     pattern it shares), patched in place per outage via the rank-1
//     branch update and restored bitwise afterwards;
//   - the pristine PV/PQ classification, copied into working buffers per
//     solve (Q-limit switching mutates the split);
//   - ONE augmented Newton state of fixed dimension: every non-slack bus
//     carries a magnitude unknown, and buses that are currently PV are
//     pinned by exact identity rows (dVm = 0) with their couplings zeroed.
//     A sweep encounters dozens of distinct PV/PQ splits as Q-limits bind
//     differently per outage, and a one-shot solve one per Q-limit round;
//     the augmentation makes them all share one compiled Jacobian pattern
//     and one LU symbolic analysis — no pattern work, no symbolic
//     analysis, no allocation in the steady state;
//   - a second LU over that pattern, the base factor (see baseFactor): the
//     Jacobian J0 at a start state over the unpatched Ybus, kept at the
//     state recent solves share, as every outage of a warm-started sweep
//     does. A solve whose patches touch at most four non-slack buses takes
//     its first Newton step on J0 at its start state, corrected for the
//     patches by Woodbury: from that state, with no refill and no
//     factorization. Q-limit re-solve rounds, chord stalls and unsafe
//     corrections refill and Refactorize the working LU instead; every
//     round then takes chord steps on its factor while the mismatch falls
//     fast (see fixedState.newtonRound).
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
	// rho is the Newton rounds' chord contraction: chordContraction, or 0
	// for the full-Newton reference of the tests.
	rho float64

	// Per-solve working buffers.
	qSpec  []float64
	pvBuf  []int
	pqBuf  []int
	vm, va []float64
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
	bf      baseFactor // what st.base points at
	patches []model.BranchPatch
}

// NewViewSolver prepares a solver context for the base network. The base
// must stay unmodified (and its base-case topology unchanged) for the
// lifetime of the solver. baseY, when non-nil, is the base admittance
// matrix to value-copy (sweeps build it once and share the pattern across
// workers); nil builds one from n that the solver owns outright.
func NewViewSolver(n *model.Network, baseY *model.Ybus) (*ViewSolver, error) {
	c, err := classify(n)
	if err != nil {
		return nil, err
	}
	// The solver patches its Ybus in place, so a shared base is
	// value-copied; one built here is the solver's own.
	var y *model.Ybus
	if baseY != nil {
		y = baseY.Copy()
	} else {
		y = model.BuildYbus(n)
	}
	nb := len(n.Buses)
	s := &ViewSolver{
		base:      n,
		y:         y,
		rho:       chordContraction,
		c0:        c,
		qSpec:     make([]float64, nb),
		pvBuf:     make([]int, 0, nb),
		pqBuf:     make([]int, 0, nb),
		vm:        make([]float64, nb),
		va:        make([]float64, nb),
		rsc:       newResultScratch(n),
		pSpecBuf:  make([]float64, nb),
		qMinBuf:   make([]float64, nb),
		qMaxBuf:   make([]float64, nb),
		hasGenBuf: make([]bool, nb),
	}
	s.st = augmentedState(s.y, nb, c.slack)
	s.st.base = &s.bf
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
	return newFixedState(y, aPos, mPos, 2*na)
}

// Base returns the shared base network the solver was built over.
func (s *ViewSolver) Base() *model.Network { return s.base }

// Solve runs the Newton power flow for the view with no copy of the
// network. Branch outages are rank-1 patches on the solver's Ybus.
// Generation-touching views (outages, redispatch) and load scaling
// re-derive the classification from the view's effective fleet and demand
// — they move pSpec and the reactive aggregates, never topology — so the
// same patched Ybus, compiled Jacobian and LU symbolic analysis serve them
// too. The DC method is not offered on views.
func (s *ViewSolver) Solve(view *model.OutageView, opts Options) (*Result, error) {
	if view.Base != s.base {
		return nil, fmt.Errorf("powerflow: view is over a different base network")
	}
	if opts.Algorithm != NewtonRaphson {
		return nil, fmt.Errorf("powerflow: %v is not available on an outage view", opts.Algorithm)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 30
	}

	res := &Result{Algorithm: opts.Algorithm}
	repivots := s.st.tally.repivots
	defer s.st.dropRepivoted(repivots)
	c, fromBase := s.start(view, opts, res)
	defer s.restore()
	vm, va := s.vm, s.va

	const maxQRounds = 6
	for round := 0; ; round++ {
		baseStarts := s.st.tally.baseStarts
		iter, facts, mis, conv, err := s.st.newtonRound(s.y, &c, vm, va, opts, s.rho, fromBase && round == 0, round > 0)
		res.BaseFactorStarts += s.st.tally.baseStarts - baseStarts
		res.Iterations += iter
		res.Factorizations += facts
		res.Repivots = s.st.tally.repivots - repivots
		res.MaxMismatch = mis
		res.Converged = conv
		if err != nil {
			return res, err
		}
		if !conv {
			finishResultScratch(s.base, s.y, &c, vm, va, s.st.cs, s.st.sn, res, s.rsc)
			return res, fmt.Errorf("%w after %d iterations (max mismatch %.3e p.u., %v)",
				ErrNotConverged, res.Iterations, mis, opts.Algorithm)
		}
		if !opts.EnforceQLimits || round >= maxQRounds {
			break
		}
		// A converged round evaluated the injections at this very state
		// last, into s.st.q.
		if !switchPVtoPQ(&c, s.st.q) {
			break
		}
	}
	finishResultScratch(s.base, s.y, &c, vm, va, s.st.cs, s.st.sn, res, s.rsc)
	return res, nil
}

// start prepares a solve of the view: the working classification, the
// start voltages in s.vm/s.va, J0 at the start state (counting its
// factorization, if any, in res), and the branch patches on s.y, which
// restore takes back off. It reports whether the first round may start
// on J0.
func (s *ViewSolver) start(view *model.OutageView, opts Options, res *Result) (c classification, fromBase bool) {
	vm, va := s.vm, s.va
	if view.HasSpecChanges() {
		// In-place spec path (gen outages, redispatch, load scaling): owned
		// spec buffers derived from the view's effective fleet and demand,
		// result scratch repointed the same way.
		c = s.classifyView(view)
		s.rsc.configureView(s.base, view)
		s.rscView = true
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
	}
	startVoltagesViewInto(s.base, view, opts, vm, va)

	// A solve whose branch patches touch few enough buses for the
	// Woodbury correction starts on J0, which is over the unpatched Ybus,
	// so this precedes the patches.
	fromBase = s.st.base.touch(s.base, view.BranchesOut(), c.slack)
	if fromBase {
		var facts int
		fromBase, facts = s.st.startOnBase(s.y, &c, vm, va, opts)
		res.Factorizations += facts
	}

	for _, k := range view.BranchesOut() {
		if p, ok := s.y.PatchBranchOutage(s.base, k); ok {
			s.patches = append(s.patches, p)
		}
	}
	return c, fromBase
}

// restore undoes start's branch patches, bitwise.
func (s *ViewSolver) restore() {
	for i := len(s.patches) - 1; i >= 0; i-- {
		s.y.Restore(s.patches[i])
	}
	s.patches = s.patches[:0]
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

// startVoltagesViewInto writes the start profile of a solve of the view into
// vm/va: opts.Warm when set, else a flat or the case's stored profile, with
// the voltage setpoints of the view's in-service generators at regulated
// buses. An outaged machine's setpoint does not seed the profile, exactly
// as on the materialized network; on a view with no spec changes
// GenInService and Gen read the base fleet.
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
