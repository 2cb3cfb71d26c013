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

// newtonInner runs Newton-Raphson with chord steps for a fixed PV/PQ split
// over the reduced index map.
func newtonInner(n *model.Network, y *model.Ybus, c *classification, vm, va []float64, opts Options) (int, int, float64, bool, error) {
	return reducedState(y, c).newtonRound(y, c, vm, va, opts, chordContraction)
}

// reducedState builds the Newton kernel over the REDUCED index map, whose
// unknown vector is [Va at non-slack buses; Vm at PQ buses] — PV magnitudes
// are eliminated (mPos = -1) rather than pinned, so on this map isPQ ⇔
// mPos ≥ 0.
func reducedState(y *model.Ybus, c *classification) *fixedState {
	aPos := make([]int, y.N)
	mPos := make([]int, y.N)
	dim := 0
	for i := range aPos {
		aPos[i], mPos[i] = -1, -1
		if i != c.slack {
			aPos[i] = dim
			dim++
		}
	}
	for _, i := range c.pq {
		mPos[i] = dim
		dim++
	}
	return newFixedState(y, aPos, mPos, dim, true)
}

// fixedState is the one Newton kernel of the package: index maps, work
// vectors, the compiled Jacobian and its LU. The Jacobian sparsity pattern
// is fixed by the Ybus structural nonzeros and the index map, so the
// symbolic CSC is compiled once per state and only its values are refilled
// in place when a step needs a fresh Jacobian; the LU likewise keeps its
// symbolic analysis (fill pattern, pivot order) from the first
// factorization and only refactorizes numerically afterwards. Chord steps
// (see newtonRound) skip both and only solve against the kept factor.
// Steady-state steps therefore perform no pattern construction and no
// allocation.
//
// Two index maps drive it. The augmented map (augmentedState, the
// ViewSolver's) gives every non-slack bus a magnitude unknown and pins the
// buses that are currently PV by identity rows, so one state serves every
// PV/PQ split of a sweep. The reduced map (newtonInner, the one-shot
// Solve's) gives only PQ buses a magnitude unknown and is rebuilt per split.
type fixedState struct {
	aPos, mPos []int // bus -> angle / magnitude unknown, -1 when absent
	isPQ       []bool
	// reduced marks the one-shot system. Its Ybus values are frozen for the
	// state's lifetime, so exactly-zero off-diagonals are left out of the
	// pattern, and its columns take the scalar minimum-degree pre-order
	// (busBlockOrdering relies on the augmented column layout).
	reduced bool
	dim     int
	rhs, dx []float64
	work    []float64
	p, q    []float64
	cs, sn  []float64
	jac     jacobian
	lu      *sparse.LU
	colPerm []int
}

func newFixedState(y *model.Ybus, aPos, mPos []int, dim int, reduced bool) *fixedState {
	nb := len(aPos)
	st := &fixedState{aPos: aPos, mPos: mPos, isPQ: make([]bool, nb), reduced: reduced, dim: dim}
	if dim == 0 {
		return st
	}
	st.rhs = make([]float64, dim)
	st.dx = make([]float64, dim)
	st.work = make([]float64, dim)
	st.p = make([]float64, nb)
	st.q = make([]float64, nb)
	st.cs = make([]float64, nb)
	st.sn = make([]float64, nb)
	st.jac = newJacobian(y, st)
	return st
}

// newtonRound iterates to convergence for the split in c. Buses with a
// magnitude unknown that are not in c.pq are pinned (dVm = 0).
//
// The round's first step refills and factorizes the Jacobian. A step that
// cut the max mismatch below rho times the previous one keeps that factor:
// the next step is a chord step, one triangular solve against it. A step
// that fell short is followed by a fresh refill and factorization, so the
// round falls back to full Newton wherever the chord stalls; rho = 0 takes
// full Newton throughout. opts.MaxIter bounds the fresh-Jacobian steps, so
// chord steps never spend budget a Newton step needs; each chord step cuts
// the mismatch at least 1/rho-fold, so their number stays bounded too.
// It returns the steps taken, the LU factorizations (a Repivot fallback
// counts as one more), the final max mismatch and whether it is below
// opts.Tol.
func (st *fixedState) newtonRound(y *model.Ybus, c *classification, vm, va []float64, opts Options, rho float64) (steps, facts int, maxMis float64, converged bool, err error) {
	if st.dim == 0 {
		return 0, 0, 0, true, nil
	}
	for i := range st.isPQ {
		st.isPQ[i] = false
	}
	for _, i := range c.pq {
		st.isPQ[i] = true
	}
	// prevMis starts at 0, so the round's first step always factorizes.
	var jacobians int
	var prevMis float64
	for step := 1; ; step++ {
		injectionsInto(y, vm, va, st.cs, st.sn, st.p, st.q)
		maxMis = st.mismatch(c)
		if maxMis < opts.Tol {
			return step - 1, facts, maxMis, true, nil
		}
		if !(maxMis < rho*prevMis) {
			if jacobians >= opts.MaxIter {
				return step - 1, facts, maxMis, false, nil
			}
			jacobians++
			n, err := st.factorize(y, vm, opts)
			facts += n
			if err != nil {
				return step, facts, maxMis, false, err
			}
		}
		prevMis = maxMis
		if err := st.lu.SolveInto(st.dx, st.rhs, st.work); err != nil {
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

// factorize refills the Jacobian at the current state and factorizes it:
// Factorize with the fill-reducing order on the state's first call,
// Refactorize on the kept symbolic analysis afterwards. It returns the
// number of numeric factorizations done (2 when Repivot had to follow).
func (st *fixedState) factorize(y *model.Ybus, vm []float64, opts Options) (int, error) {
	st.jac.refill(y, st, vm)
	if st.lu == nil {
		if st.colPerm = lookupOrdering(opts.Reorder, st.dim); st.colPerm == nil {
			if st.reduced {
				st.colPerm = sparse.MinDegree(st.jac.mat)
			} else {
				st.colPerm = busBlockOrdering(y, st)
			}
			storeOrdering(opts.Reorder, st.dim, st.colPerm)
		}
		lu, err := sparse.Factorize(st.jac.mat, sparse.Options{ColPerm: st.colPerm})
		if err != nil {
			return 1, err
		}
		st.lu = lu
		return 1, nil
	}
	if err := st.lu.Refactorize(st.jac.mat); err != nil {
		// Frozen pivot order hit a zero pivot for these values; redo the
		// factorization in place with fresh row pivoting. The column
		// pre-order stays valid — only the pivot choices went stale.
		return 2, st.lu.Repivot(st.jac.mat)
	}
	return 1, nil
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
// written as exact zero. On the augmented map zero-valued Ybus entries stay
// in the pattern, so rank-1 outage patches never change it.
//
// refill overwrites mat's values through the slot map; the symbolic and
// numeric walks below visit y.NZ in storage (row-major) order and must emit
// in the same sequence (each Ybus nonzero maps to a unique set of Jacobian coordinates,
// so the slot map is a bijection).
type jacobian struct {
	mat  *sparse.CSC
	slot []int
}

// newJacobian compiles the symbolic pattern once for st's index map.
func newJacobian(y *model.Ybus, st *fixedState) jacobian {
	ri := make([]int, 0, 4*len(y.NZ))
	ci := make([]int, 0, 4*len(y.NZ))
	emit := func(r, c int) {
		ri = append(ri, r)
		ci = append(ci, c)
	}
	for e, nz := range y.NZ {
		i, j := nz[0], nz[1]
		ai, mi := st.aPos[i], st.mPos[i]
		if ai < 0 || (i != j && st.reduced && y.NZv[e] == 0) {
			continue
		}
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
	mat, slot := sparse.CompilePattern(st.dim, st.dim, ri, ci)
	return jacobian{mat: mat, slot: slot}
}

// refill recomputes the Jacobian values for the current state and PQ
// membership. No allocation, no pattern work, no closures: this loop is
// ~5% of an N-1 sweep. y.NZ is row-major, so walking it by rows is the
// same storage order newJacobian compiled, with the per-row state hoisted.
// st.p/st.q/st.cs/st.sn must hold the injections and cos(va)/sin(va) as
// filled by injectionsInto for the same state.
func (ja *jacobian) refill(y *model.Ybus, st *fixedState, vm []float64) {
	val, slot := ja.mat.Values(), ja.slot
	aPos, mPos, isPQ, reduced := st.aPos, st.mPos, st.isPQ, st.reduced
	p, q, cs, sn := st.p, st.q, st.cs, st.sn
	k := 0
	for i := 0; i < y.N; i++ {
		if aPos[i] < 0 {
			continue
		}
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
			if reduced && yij == 0 {
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
	}
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

// injectionsInto is the allocation-free form of injections: it overwrites
// p and q (length nb) in place. cs and sn are caller-owned scratch (length
// nb) that receive cos(va)/sin(va); angle differences across entries are
// expanded through the addition identities, so the per-structural-nonzero
// cost is multiplies instead of transcendental calls.
func injectionsInto(y *model.Ybus, vm, va []float64, cs, sn, p, q []float64) {
	for i := range p {
		p[i], q[i] = 0, 0
		cs[i] = math.Cos(va[i])
		sn[i] = math.Sin(va[i])
	}
	for k, nz := range y.NZ {
		yij := y.NZv[k]
		g, b := real(yij), imag(yij)
		if g == 0 && b == 0 {
			continue
		}
		i, j := nz[0], nz[1]
		ct := cs[i]*cs[j] + sn[i]*sn[j] // cos(va_i − va_j)
		st := sn[i]*cs[j] - cs[i]*sn[j] // sin(va_i − va_j)
		vv := vm[i] * vm[j]
		p[i] += vv * (g*ct + b*st)
		q[i] += vv * (g*st - b*ct)
	}
}
