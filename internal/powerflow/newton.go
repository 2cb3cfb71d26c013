package powerflow

import (
	"math"

	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// chordContraction is the factor by which a step must cut the max mismatch
// for the next step to reuse its LU factor (a chord step). A step that
// falls short is followed by a fresh refill and factorization.
const chordContraction = 0.2

// fixedState is the one Newton kernel of the package: index map, work
// vectors, the compiled Jacobian and its LU. The Jacobian sparsity pattern
// is fixed by the Ybus structural nonzeros and the index map, so the
// symbolic CSC is compiled once per state and only its values are refilled
// in place when a step needs a fresh Jacobian; the LU likewise keeps its
// symbolic analysis (fill pattern, pivot order) from the first
// factorization and only refactorizes numerically afterwards. Chord steps
// (see newtonRound) skip both and only solve against the kept factor, and
// a round may start on the ViewSolver's base factor instead of a fresh one
// (see baseFactor), which also skips both. Steady-state steps
// therefore perform no pattern construction and no allocation.
//
// One index map drives it, the augmented map of augmentedState: every
// non-slack bus has a magnitude unknown and the buses that are currently PV
// are pinned by identity rows, so one state serves every PV/PQ split of a
// solve, one-shot or sweep, and every outage of a sweep.
type fixedState struct {
	aPos, mPos []int // bus -> angle / magnitude unknown, -1 when absent
	isPQ       []bool
	dim        int
	rhs, dx    []float64
	work       []float64
	p, q       []float64
	cs, sn     []float64
	jac        jacobian
	lu         *sparse.LU
	colPerm    []int
	// base is the ViewSolver's base factor; see baseFactor.
	base  *baseFactor
	tally factorTally
}

func newFixedState(y *model.Ybus, aPos, mPos []int, dim int) *fixedState {
	nb := len(aPos)
	st := &fixedState{aPos: aPos, mPos: mPos, isPQ: make([]bool, nb), dim: dim}
	// The result tail reads the evaluation, a lone slack bus's included.
	st.p = make([]float64, nb)
	st.q = make([]float64, nb)
	st.cs = make([]float64, nb)
	st.sn = make([]float64, nb)
	if dim == 0 {
		return st
	}
	st.rhs = make([]float64, dim)
	st.dx = make([]float64, dim)
	st.work = make([]float64, dim)
	st.jac = newJacobian(y, st)
	return st
}

// newtonRound iterates to convergence for the split in c. Buses with a
// magnitude unknown that are not in c.pq are pinned (dVm = 0).
//
// The round's first step refills and factorizes the Jacobian, unless
// fromBase says a factor of J0, the Jacobian of this start state over the
// unpatched Ybus, is at hand (see baseFactor): then the first step
// corrects J0 for the solve's branch patches by Woodbury instead, and
// falls back to refill + factorize only when the correction is unsafe. A
// step that cut the max mismatch below rho times the previous one keeps
// the step's factor: the next step is a chord step, one triangular solve
// against it (plus the low-rank correction on a J0 start). A step
// that fell short is followed by a fresh refill and factorization, so the
// round falls back to full Newton wherever the chord stalls; rho = 0 takes
// full Newton throughout. opts.MaxIter bounds the exact-Jacobian steps (a
// base-factor start is one), so chord steps never spend budget a Newton
// step needs; each chord step cuts the mismatch at least 1/rho-fold, so
// their number stays bounded too. evaluated says st.p, st.q, st.cs and
// st.sn hold the evaluation at (vm, va) already, as a converged round
// leaves them for the next Q-limit round; every return but an error leaves
// them so for the result tail. It returns the steps taken, the LU
// factorizations (a Repivot fallback counts as one more), the final max
// mismatch and whether it is below opts.Tol.
func (st *fixedState) newtonRound(y *model.Ybus, c *classification, vm, va []float64, opts Options, rho float64, fromBase, evaluated bool) (steps, facts int, maxMis float64, converged bool, err error) {
	st.setPQ(c)
	// prevMis starts at 0, so the round's first step always takes a fresh
	// Jacobian.
	var jacobians int
	var prevMis float64
	onBase := false // steps solve on J0 with the Woodbury correction
	for step := 1; ; step++ {
		if step > 1 || !evaluated {
			injectionsInto(y, vm, va, st.cs, st.sn, st.p, st.q)
		}
		maxMis = st.mismatch(c)
		if maxMis < opts.Tol {
			return step - 1, facts, maxMis, true, nil
		}
		if !(maxMis < rho*prevMis) {
			if jacobians >= opts.MaxIter {
				return step - 1, facts, maxMis, false, nil
			}
			jacobians++
			onBase = fromBase && step == 1 && st.base.correct(y, st, vm)
			st.tally.count(step, fromBase, onBase, onBase && st.base.f == st.base.lu)
			if !onBase {
				n, err := st.factorize(y, vm, opts)
				facts += n
				if err != nil {
					return step, facts, maxMis, false, err
				}
			}
		}
		prevMis = maxMis
		if onBase {
			err = st.base.solve(st)
		} else {
			err = st.lu.SolveInto(st.dx, st.rhs, st.work)
		}
		if err != nil {
			return step, facts, maxMis, false, err
		}
		for i, a := range st.aPos {
			if a >= 0 {
				va[i] = angleWrap(va[i] + st.dx[a])
			}
			// Magnitude steps apply only to PQ buses; pinned rows solved
			// dVm = 0 exactly, and skipping them here keeps even that
			// exactness irrelevant.
			if m := st.mPos[i]; m >= 0 && st.isPQ[i] {
				vm[i] += st.dx[m]
				if vm[i] < 1e-3 {
					vm[i] = 1e-3 // keep magnitudes physical during iteration
				}
			}
		}
	}
}

// setPQ marks the PQ buses of c in st.isPQ.
func (st *fixedState) setPQ(c *classification) {
	for i := range st.isPQ {
		st.isPQ[i] = false
	}
	for _, i := range c.pq {
		st.isPQ[i] = true
	}
}

// factorize refills the Jacobian at the current state and factorizes it
// into the state's working LU, returning the numeric factorizations done.
func (st *fixedState) factorize(y *model.Ybus, vm []float64, opts Options) (int, error) {
	st.jac.refill(y, st, vm)
	return st.factorInto(&st.lu, y, opts)
}

// factorInto factorizes the Jacobian's current values into *lu, which is
// the working LU or the base factor's: Refactorize on the kept symbolic
// analysis, which a nil *lu first takes over from the state's other LU by
// Clone, so both share one pivot order; Factorize with the fill-reducing
// order when the state has no LU yet. It returns the number of numeric
// factorizations done (2 when Repivot had to follow).
func (st *fixedState) factorInto(lu **sparse.LU, y *model.Ybus, opts Options) (int, error) {
	if *lu == nil {
		if other := st.otherLU(lu); other != nil {
			*lu = other.Clone()
		} else {
			if st.colPerm == nil {
				if st.colPerm = lookupOrdering(opts.Reorder, st.dim); st.colPerm == nil {
					st.colPerm = busBlockOrdering(y, st)
					storeOrdering(opts.Reorder, st.dim, st.colPerm)
				}
			}
			f, err := sparse.Factorize(st.jac.mat, sparse.Options{ColPerm: st.colPerm})
			if err != nil {
				return 1, err
			}
			// A ViewSolver keeps its LUs for its whole life: store this one
			// compactly, not in the slack Factorize sizes for fill.
			*lu = f.Clone()
			return 1, nil
		}
	}
	if err := (*lu).Refactorize(st.jac.mat); err != nil {
		// Frozen pivot order hit a zero pivot for these values; redo the
		// factorization in place with fresh row pivoting. The column
		// pre-order stays valid — only the pivot choices went stale.
		st.tally.repivots++
		return 2, (*lu).Repivot(st.jac.mat)
	}
	return 1, nil
}

// dropRepivoted drops the working LU when a Repivot has run since the
// tally counted repivots. Row pivots chosen from one solve's values would
// otherwise outlive it and make later solves' arithmetic depend on the
// solver's history; dropped, the working LU is cloned from the base factor
// at its next factorization (or factorized afresh without one), as on a
// fresh solver.
func (st *fixedState) dropRepivoted(repivots int) {
	if st.tally.repivots != repivots {
		st.lu = nil
	}
}

// otherLU returns the state's LU that lu does not point at: the base
// factor's for the working LU and the other way round.
func (st *fixedState) otherLU(lu **sparse.LU) *sparse.LU {
	if lu == &st.lu {
		return st.base.lu
	}
	return st.lu
}

// mismatch writes [ΔP; ΔQ or pin] into rhs from the injections in st.p/st.q
// and returns the max abs mismatch. Pinned magnitude rows get a zero
// right-hand side: their equation is dVm = 0.
func (st *fixedState) mismatch(c *classification) float64 {
	var maxMis float64
	for i, a := range st.aPos {
		if a >= 0 {
			d := c.pSpec[i] - st.p[i]
			st.rhs[a] = d
			if d = math.Abs(d); d > maxMis {
				maxMis = d
			}
		}
		if m := st.mPos[i]; m >= 0 {
			if st.isPQ[i] {
				d := c.qSpec[i] - st.q[i]
				st.rhs[m] = d
				if d = math.Abs(d); d > maxMis {
					maxMis = d
				}
			} else {
				st.rhs[m] = 0
			}
		}
	}
	return maxMis
}

// jacobian is the polar power flow Jacobian
//
//	[ dP/dVa  dP/dVm ]
//	[ dQ/dVa  dQ/dVm ]
//
// over the unknowns of a fixedState's index map, with a fixed symbolic
// pattern compiled from the Ybus structural nonzeros. A bus that has a
// magnitude unknown but is currently PV is pinned: its magnitude row is the
// identity and every coupling into or out of its magnitude column is
// written as exact zero. Zero-valued Ybus entries stay in the pattern, so
// rank-1 outage patches never change it.
//
// refill overwrites mat's values through the slot map; the symbolic and
// numeric walks below visit y.NZ in storage (row-major) order and must emit
// in the same sequence (each Ybus nonzero maps to a unique set of Jacobian coordinates,
// so the slot map is a bijection).
type jacobian struct {
	mat  *sparse.CSC
	slot []int
	// rowSlot[i] is the slot-map index at which bus i's rows start, so
	// refillRow can rewrite one bus's rows alone.
	rowSlot []int
}

// newJacobian compiles the symbolic pattern once for st's index map.
func newJacobian(y *model.Ybus, st *fixedState) jacobian {
	ri := make([]int, 0, 4*len(y.NZ))
	ci := make([]int, 0, 4*len(y.NZ))
	emit := func(r, c int) {
		ri = append(ri, r)
		ci = append(ci, c)
	}
	rowSlot := make([]int, y.N)
	for i := 0; i < y.N; i++ {
		rowSlot[i] = len(ri)
		ai, mi := st.aPos[i], st.mPos[i]
		if ai < 0 {
			continue
		}
		for e := y.RowPtr[i]; e < y.RowPtr[i+1]; e++ {
			j := y.NZ[e][1]
			if i == j {
				emit(ai, ai)
				if mi >= 0 {
					emit(ai, mi)
					emit(mi, ai)
					emit(mi, mi)
				}
				continue
			}
			if aj := st.aPos[j]; aj >= 0 {
				emit(ai, aj)
				if mi >= 0 {
					emit(mi, aj)
				}
			}
			if mj := st.mPos[j]; mj >= 0 {
				emit(ai, mj)
				if mi >= 0 {
					emit(mi, mj)
				}
			}
		}
	}
	mat, slot := sparse.CompilePattern(st.dim, st.dim, ri, ci)
	return jacobian{mat: mat, slot: slot, rowSlot: rowSlot}
}

// refill recomputes the Jacobian values for the current state and PQ
// membership. No allocation, no pattern work, no closures: with refillRow
// it is about 2 % of an N-1 sweep (case300, cumulative). st.p/st.q/st.cs/
// st.sn must hold the injections and cos(va)/sin(va) as filled by
// injectionsInto for the same state.
func (ja *jacobian) refill(y *model.Ybus, st *fixedState, vm []float64) {
	k := 0
	for i := 0; i < y.N; i++ {
		k = ja.refillRow(y, st, vm, i, k)
	}
}

// refillRow recomputes the values of bus i's rows (its P row and, with a
// magnitude unknown, its Q row), whose entries start at slot-map index k,
// and returns the index after them. Row i of the Jacobian reads only row i
// of the Ybus and the injections at i, so after a change confined to some
// buses' Ybus rows, refilling those buses' rows brings the whole matrix up
// to date. y.NZ is row-major, so walking row i is the storage order
// newJacobian compiled, with the per-row state hoisted.
func (ja *jacobian) refillRow(y *model.Ybus, st *fixedState, vm []float64, i, k int) int {
	aPos, mPos, isPQ := st.aPos, st.mPos, st.isPQ
	if aPos[i] < 0 {
		return k
	}
	val, slot := ja.mat.Values(), ja.slot
	p, q, cs, sn := st.p, st.q, st.cs, st.sn
	hasM, pqi := mPos[i] >= 0, isPQ[i]
	vi, ci, si := vm[i], cs[i], sn[i]
	for e := y.RowPtr[i]; e < y.RowPtr[i+1]; e++ {
		j, yij := y.NZ[e][1], y.NZv[e]
		g, b := real(yij), imag(yij)
		if i == j {
			val[slot[k]] = -q[i] - b*vi*vi // dP_i/dVa_i
			k++
			if !hasM {
				continue
			}
			if pqi {
				val[slot[k]] = p[i]/vi + g*vi   // dP_i/dVm_i
				val[slot[k+1]] = p[i] - g*vi*vi // dQ_i/dVa_i
				val[slot[k+2]] = q[i]/vi - b*vi // dQ_i/dVm_i
			} else {
				val[slot[k]] = 0   // pinned column
				val[slot[k+1]] = 0 // pinned row
				val[slot[k+2]] = 1 // identity: dVm_i = 0
			}
			k += 3
			continue
		}
		ct := ci*cs[j] + si*sn[j]  // cos(va_i − va_j)
		sth := si*cs[j] - ci*sn[j] // sin(va_i − va_j)
		vij := vi * vm[j]
		if aPos[j] >= 0 {
			val[slot[k]] = vij * (g*sth - b*ct) // dP_i/dVa_j
			k++
			if hasM {
				var dQdA float64
				if pqi {
					dQdA = -vij * (g*ct + b*sth) // dQ_i/dVa_j
				}
				val[slot[k]] = dQdA
				k++
			}
		}
		if mPos[j] >= 0 {
			var dPdM, dQdM float64
			if isPQ[j] {
				dPdM = vi * (g*ct + b*sth) // dP_i/dVm_j
				if pqi {
					dQdM = vi * (g*sth - b*ct) // dQ_i/dVm_j
				}
			}
			val[slot[k]] = dPdM
			k++
			if hasM {
				val[slot[k]] = dQdM
				k++
			}
		}
	}
	return k
}

// injectionsInto evaluates real and reactive nodal injections in p.u. for
// the polar voltage state, iterating only structural nonzeros, without
// allocating: it overwrites p and q (length nb) in place. cs and sn are
// caller-owned scratch (length nb) that receive cos(va)/sin(va) from one
// math.Sincos per bus, which returns the same bits as separate math.Cos
// and math.Sin for every finite angle. Angle differences across entries
// are expanded through the addition identities, so the
// per-structural-nonzero cost is multiplies instead of transcendental
// calls. Each bus accumulates its P and Q over its Ybus row in two
// locals, in storage order, so the sums are the ones a walk over y.NZ
// adding into p[i] and q[i] produces.
func injectionsInto(y *model.Ybus, vm, va []float64, cs, sn, p, q []float64) {
	for i := range p {
		sn[i], cs[i] = math.Sincos(va[i])
	}
	for i := range p {
		lo, hi := y.RowPtr[i], y.RowPtr[i+1]
		cols, vals := y.NZ[lo:hi], y.NZv[lo:hi]
		vals = vals[:len(cols)]
		ci, si, vi := cs[i], sn[i], vm[i]
		var pi, qi float64
		for e, nz := range cols {
			g, b := real(vals[e]), imag(vals[e])
			if g == 0 && b == 0 {
				continue
			}
			j := nz[1]
			ct := ci*cs[j] + si*sn[j] // cos(va_i − va_j)
			st := si*cs[j] - ci*sn[j] // sin(va_i − va_j)
			vv := vi * vm[j]
			pi += vv * (g*ct + b*st)
			qi += vv * (g*st - b*ct)
		}
		p[i], q[i] = pi, qi
	}
}
