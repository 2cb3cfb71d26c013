package powerflow

import (
	"math"

	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// Base-factor Newton starts: the compensation method of classical
// contingency analysis inside the one Newton kernel.
//
// An N-1 sweep warm-starts every outage from the same base voltages with
// the same pristine PV/PQ split, so the first Jacobian of every outage is
// J(base state) over that outage's patched Ybus. Row i of the Jacobian
// reads only row i of the Ybus and the injections at bus i, and a branch
// patch changes the Ybus rows of its two end buses alone. So the outage's
// start Jacobian equals J0 = J(base state) over the unpatched Ybus except
// in rows(S) × cols(S), S being the non-slack buses the patches touch:
//
//	J = J0 + E·D·Eᵀ,   E = the unit columns of S's unknowns,
//	D = (J − J0) restricted to those rows and columns (m×m, m ≤ 2|S|).
//
// With J0 factorized once as P·J0·Q = L·U, Woodbury gives the step along
// the factor paths (sparse-vector compensation):
//
//	J⁻¹r = Q·U⁻¹·(z − Σ_c u_c·Lw_c),   z = L⁻¹P·r,   Lw_c = L⁻¹P·e_{idx_c},
//	u = (I + D·G)⁻¹·D·t,   t_r = Y_r·z,   G[e][c] = Y_e·Lw_c,
//
// where idx_c is E's c-th unknown and Y_r = U⁻ᵀ·e_{q⁻¹(idx_r)} is the row
// of U⁻¹ that reads unknown idx_r from a forward solve. Lw_c and Y_r are
// path solves: they touch only the reach of one unit vector in L's or U's
// graph, a few dozen of the Jacobian's hundreds of positions. So an
// outage's round starts with 2m path solves and a dense m×m factorization
// instead of refill + Refactorize, and each of its chord steps costs one
// forward and one back solve with the sparse t and z updates between them.

// maxBaseBuses bounds the touched non-slack buses a base-factor start
// corrects for: two branch outages touch at most four.
const maxBaseBuses = 4

// maxBaseRank bounds the correction's rank: an angle and a magnitude
// unknown per touched bus.
const maxBaseRank = 2 * maxBaseBuses

// capacitancePivotTol is the relative pivot floor of the capacitance
// factorization. A smaller (or non-finite) pivot means the corrected
// system is too ill-conditioned for Woodbury to match a direct
// factorization, and the round refactorizes instead.
const capacitancePivotTol = 1e-10

// baseFactor is a ViewSolver's second LU: the augmented Jacobian J0 at a
// start state (Vm, Va and PQ set) over the unpatched Ybus, keyed by a copy
// of that state. Every solve whose branch patches touch one to
// maxBaseBuses non-slack buses takes its first Newton step on J0 at its own
// start state with a Woodbury correction. When the start state matches the
// key, the base factor serves as it stands. Otherwise J0 is factorized at
// the new state, which costs the one factorization the round's first step
// would have taken anyway: into the base factor, rekeying it, when the
// state is one of the last few solves' start states (a sweep's shared
// warm start), and into the working LU when it looks like a one-off
// (a cascade stage, an episode step), so that a one-off never evicts the
// shared state. Both LUs share one pivot order (a solve that repivots
// drops the working LU after it; see fixedState.dropRepivoted), so either
// way a solve does the same arithmetic and its result does not depend on
// what the solver solved before: a pooled worker and a fresh one agree bit
// for bit. A solve with no branch patches uses the base factor only when
// it is built at the solve's start state: it is then the very matrix the
// round would factorize. The buffers are allocated when J0 is first
// factorized, never per solve; the paths' storage grows only for a reach
// longer than any before.
type baseFactor struct {
	lu  *sparse.LU
	val []float64 // J0's values at the key, in the working Jacobian's storage order

	// The key: the start state lu and val were built at.
	vm, va []float64
	pq     []bool
	npq    int
	built  bool
	// recent holds hashes of the last solves' start states.
	recent [2]uint64

	// The current round's J0: the base factor, or the working LU holding a
	// one-off state's J0 whose values oneVal keeps.
	f      *sparse.LU
	j0     []float64
	oneVal []float64

	// buses are the touched non-slack buses of the current solve.
	buses [maxBaseBuses]int
	nbus  int

	// The current round's correction: the unknowns of the touched buses,
	// D, the LU of the capacitance matrix I + D·G with its row pivots, and
	// the factor paths Lw_c and Y_r, each as its nonzero positions and
	// values: Lw_c at [lwOff[c], lwOff[c+1]) of lwPat/lwVal, Y_r likewise.
	// scratch is the path solves' dense buffer, zero between them.
	m           int
	idx         [maxBaseRank]int
	d, capLU    [maxBaseRank * maxBaseRank]float64
	piv         [maxBaseRank]int
	lwOff, yOff [maxBaseRank + 1]int
	lwPat, yPat []int
	lwVal, yVal []float64
	scratch     []float64
}

// matches reports whether the factor is built at (vm, va, c.pq).
func (b *baseFactor) matches(c *classification, vm, va []float64) bool {
	if !b.built || len(c.pq) != b.npq {
		return false
	}
	for _, i := range c.pq {
		if !b.pq[i] {
			return false
		}
	}
	for i := range vm {
		if vm[i] != b.vm[i] || va[i] != b.va[i] {
			return false
		}
	}
	return true
}

// startOnBase sets up J0 at the start state (vm, va) with the split in c
// for the first round, as baseFactor describes, and reports whether the
// round may start on it. It must run before the solve's branch patches
// are applied, since J0 is the Jacobian over the unpatched y. It returns
// the numeric factorizations it did.
func (st *fixedState) startOnBase(y *model.Ybus, c *classification, vm, va []float64, opts Options) (bool, int) {
	b := st.base
	if st.dim == 0 {
		return false, 0
	}
	if b.matches(c, vm, va) {
		b.f, b.j0 = b.lu, b.val
		return true, 0
	}
	if b.nbus == 0 {
		// Without patches J0 is the round's own first Jacobian, which the
		// working LU factorizes at the same cost.
		return false, 0
	}
	h := stateHash(c, vm, va)
	shared := !b.built || h == b.recent[0] || h == b.recent[1]
	b.recent = [2]uint64{h, b.recent[0]}
	st.setPQ(c)
	injectionsInto(y, vm, va, st.cs, st.sn, st.p, st.q)
	st.jac.refill(y, st, vm)
	lu := &st.lu
	if shared {
		lu = &b.lu
		b.built = false
	}
	facts, err := st.factorInto(lu, y, opts)
	if shared {
		st.tally.baseBuilds++
	} else {
		st.tally.oneOffs++
	}
	if err != nil {
		return false, facts
	}
	if b.val == nil {
		// The paths' storage starts at twice the dimension per set, which
		// the few-dozen-entry paths of a sweep's outages never outgrow;
		// append extends it for a larger reach.
		nb, nnz, dim := len(vm), len(st.jac.mat.Values()), st.dim
		buf := make([]float64, 2*nb+2*nnz+5*dim)
		b.vm, b.va, buf = buf[:nb:nb], buf[nb:2*nb:2*nb], buf[2*nb:]
		b.val, b.oneVal, buf = buf[:nnz:nnz], buf[nnz:2*nnz:2*nnz], buf[2*nnz:]
		b.lwVal, b.yVal, b.scratch = buf[:0:2*dim], buf[2*dim:2*dim:4*dim], buf[4*dim:]
		pat := make([]int, 4*dim)
		b.lwPat, b.yPat = pat[:0:2*dim], pat[2*dim:2*dim]
		b.pq = make([]bool, nb)
	}
	if !shared {
		copy(b.oneVal, st.jac.mat.Values())
		b.f, b.j0 = st.lu, b.oneVal
		return true, facts
	}
	copy(b.val, st.jac.mat.Values())
	copy(b.vm, vm)
	copy(b.va, va)
	copy(b.pq, st.isPQ)
	b.npq = len(c.pq)
	b.built = true
	b.f, b.j0 = b.lu, b.val
	return true, facts
}

// stateHash mixes a start state (Vm, Va and PQ set) into 64 bits. A
// collision only decides which LU holds J0, never the arithmetic.
func stateHash(c *classification, vm, va []float64) uint64 {
	h := uint64(len(c.pq))
	mix := func(x uint64) {
		h ^= x
		h *= 0x100000001b3
		h ^= h >> 29
	}
	for i := range vm {
		mix(math.Float64bits(vm[i]))
		mix(math.Float64bits(va[i]))
	}
	for _, i := range c.pq {
		mix(uint64(i))
	}
	return h
}

// touch records the non-slack end buses of the solve's patched branches.
// It reports false when they are more than maxBaseBuses.
func (b *baseFactor) touch(n *model.Network, patched []int, slack int) bool {
	b.nbus = 0
	for _, k := range patched {
		br := n.Branches[k]
		for _, bus := range [2]int{br.From, br.To} {
			if bus == slack || b.touched(bus) {
				continue
			}
			if b.nbus == maxBaseBuses {
				return false
			}
			b.buses[b.nbus] = bus
			b.nbus++
		}
	}
	return true
}

// touched reports whether bus is among the recorded buses.
func (b *baseFactor) touched(bus int) bool {
	for _, t := range b.buses[:b.nbus] {
		if t == bus {
			return true
		}
	}
	return false
}

// correct sets up the Woodbury correction of the base factor for the
// patched Ybus y at the round's start state. st.p/st.q/st.cs/st.sn must
// hold the injections at that state over y, and st.isPQ its split. It
// reports false when the capacitance matrix has a pivot below
// capacitancePivotTol relative to its largest entry, or a non-finite one;
// the round then refactorizes.
func (b *baseFactor) correct(y *model.Ybus, st *fixedState, vm []float64) bool {
	m := 0
	for _, bus := range b.buses[:b.nbus] {
		b.idx[m] = st.aPos[bus]
		m++
		if st.isPQ[bus] {
			b.idx[m] = st.mPos[bus]
			m++
		}
	}
	b.m = m
	if m == 0 {
		return true
	}
	// D: the touched buses' rows at the patched Ybus, against J0. Rows of
	// untouched buses are unchanged, and so are the touched rows' entries
	// in untouched columns, which read untouched Ybus entries only.
	for _, bus := range b.buses[:b.nbus] {
		st.jac.refillRow(y, st, vm, bus, st.jac.rowSlot[bus])
	}
	val := st.jac.mat.Values()
	for r := 0; r < m; r++ {
		for c := 0; c < m; c++ {
			var d float64
			if p := st.jac.mat.Pos(b.idx[r], b.idx[c]); p >= 0 {
				d = val[p] - b.j0[p]
			}
			b.d[r*m+c] = d
		}
	}
	// The factor paths: every Lw_c first, then each Y_e against all of
	// them for row e of G.
	f, z := b.f, b.scratch
	b.lwPat, b.lwVal = b.lwPat[:0], b.lwVal[:0]
	for c := 0; c < m; c++ {
		b.lwOff[c] = len(b.lwPat)
		pat, err := f.ForwardPathInto(z, b.idx[c], b.lwPat)
		if err != nil {
			return false
		}
		b.lwPat = pat
		for _, i := range pat[b.lwOff[c]:] {
			b.lwVal = append(b.lwVal, z[i])
			z[i] = 0
		}
	}
	b.lwOff[m] = len(b.lwPat)
	var g [maxBaseRank * maxBaseRank]float64
	b.yPat, b.yVal = b.yPat[:0], b.yVal[:0]
	for e := 0; e < m; e++ {
		b.yOff[e] = len(b.yPat)
		pat, err := f.BackRowInto(z, b.idx[e], b.yPat)
		if err != nil {
			return false
		}
		b.yPat = pat
		for c := 0; c < m; c++ {
			g[e*m+c] = dot(z, b.lwPat, b.lwVal, b.lwOff[c], b.lwOff[c+1])
		}
		for _, i := range pat[b.yOff[e]:] {
			b.yVal = append(b.yVal, z[i])
			z[i] = 0
		}
	}
	b.yOff[m] = len(b.yPat)
	// Capacitance I + D·G, factorized with partial pivoting.
	cf := b.capLU[:m*m]
	var amax float64
	for r := 0; r < m; r++ {
		for c := 0; c < m; c++ {
			var s float64
			if r == c {
				s = 1
			}
			for e := 0; e < m; e++ {
				s += b.d[r*m+e] * g[e*m+c]
			}
			cf[r*m+c] = s
			amax = math.Max(amax, math.Abs(s))
		}
	}
	return denseLU(cf, b.piv[:m], m, capacitancePivotTol*amax)
}

// solve writes the Newton step for st.rhs into st.dx on the corrected base
// factor: z = L⁻¹P·rhs, t_r = Y_r·z, u = (I + D·G)⁻¹·D·t, then
// dx = Q·U⁻¹·(z − Σ_c u_c·Lw_c).
func (b *baseFactor) solve(st *fixedState) error {
	z := st.work
	if err := b.f.ForwardInto(z, st.rhs); err != nil {
		return err
	}
	m := b.m
	var t, u [maxBaseRank]float64
	for r := 0; r < m; r++ {
		t[r] = dot(z, b.yPat, b.yVal, b.yOff[r], b.yOff[r+1])
	}
	for r := 0; r < m; r++ {
		var s float64
		for c := 0; c < m; c++ {
			s += b.d[r*m+c] * t[c]
		}
		u[r] = s
	}
	denseSolve(b.capLU[:m*m], b.piv[:m], m, u[:m])
	for c := 0; c < m; c++ {
		if u[c] == 0 {
			continue
		}
		uc, lo, hi := u[c], b.lwOff[c], b.lwOff[c+1]
		pat, val := b.lwPat[lo:hi], b.lwVal[lo:hi]
		val = val[:len(pat)]
		for k, i := range pat {
			z[i] -= uc * val[k]
		}
	}
	return b.f.BackInto(st.dx, z)
}

// dot returns Σ x[pat[k]]·val[k] over the stored sparse vector at
// [lo, hi) of pat and val.
func dot(x []float64, pat []int, val []float64, lo, hi int) float64 {
	pat, val = pat[lo:hi], val[lo:hi]
	val = val[:len(pat)]
	var s float64
	for k, i := range pat {
		s += x[i] * val[k]
	}
	return s
}

// denseLU factorizes the row-major m×m matrix a in place with partial
// pivoting (unit-lower L below the diagonal, U on and above), recording
// the pivot row of each step in piv. It reports false when a pivot is
// not finite or not above floor in magnitude.
func denseLU(a []float64, piv []int, m int, floor float64) bool {
	for k := 0; k < m; k++ {
		p := k
		for r := k + 1; r < m; r++ {
			if math.Abs(a[r*m+k]) > math.Abs(a[p*m+k]) {
				p = r
			}
		}
		piv[k] = p
		if p != k {
			for c := 0; c < m; c++ {
				a[k*m+c], a[p*m+c] = a[p*m+c], a[k*m+c]
			}
		}
		d := a[k*m+k]
		if !(math.Abs(d) > floor) || math.IsInf(d, 0) {
			return false
		}
		for r := k + 1; r < m; r++ {
			l := a[r*m+k] / d
			a[r*m+k] = l
			for c := k + 1; c < m; c++ {
				a[r*m+c] -= l * a[k*m+c]
			}
		}
	}
	return true
}

// denseSolve overwrites x with the solution of A·x = x, given denseLU's
// factorization of A.
func denseSolve(a []float64, piv []int, m int, x []float64) {
	for k := 0; k < m; k++ {
		x[k], x[piv[k]] = x[piv[k]], x[k]
	}
	for k := 0; k < m; k++ {
		for r := k + 1; r < m; r++ {
			x[r] -= a[r*m+k] * x[k]
		}
	}
	for k := m - 1; k >= 0; k-- {
		for c := k + 1; c < m; c++ {
			x[k] -= a[k*m+c] * x[c]
		}
		x[k] /= a[k*m+k]
	}
}

// factorTally counts a Newton state's Jacobian events over its life, by
// cause: the census behind Result.Factorizations.
type factorTally struct {
	roundStarts int // a round's first step refactorized (no J0 offered)
	baseStarts  int // a round's first step ran on the kept base factor, corrected
	fallbacks   int // J0 was offered but the correction was unsafe
	stalls      int // a chord step fell short and the step refactorized
	baseBuilds  int // the base factor was (re)built
	oneOffs     int // a one-off start state's J0 was factorized into the working LU
	repivots    int // a Refactorize went stale and Repivot followed
}

// count records the fresh Jacobian taken at a round's given step: onBase
// when it is J0 with the Woodbury correction, kept when that J0 is the
// base factor rather than a one-off's (whose factorization oneOffs has
// counted).
func (t *factorTally) count(step int, fromBase, onBase, kept bool) {
	switch {
	case step > 1:
		t.stalls++
	case onBase:
		if kept {
			t.baseStarts++
		}
	case fromBase:
		t.fallbacks++
	default:
		t.roundStarts++
	}
}
