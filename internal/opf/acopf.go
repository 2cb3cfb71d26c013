package opf

import (
	"fmt"

	"gridmind/internal/model"
)

// acopf holds the assembled optimization problem for one network: the
// variable layout is x = [Va(nb) ; Vm(nb) ; Pg(ng) ; Qg(ng)] in per-unit,
// equalities are the 2·nb nodal power balances plus the slack-angle pin,
// and inequalities are the squared branch MVA limits (both ends) followed
// by the variable bounds.
type acopf struct {
	net  *model.Network
	y    *model.Ybus
	base float64
	nb   int
	// gens lists in-service generator indices; genOf[busIdx] are positions
	// into gens.
	gens  []int
	genOf [][]int
	// nbrs adjacency: for each bus, the neighboring buses with Y_ik ≠ 0;
	// nbrv holds the aligned transfer admittances Y_ik.
	nbrs [][]int
	nbrv [][]complex128
	// rated lists in-service branches with a thermal rating.
	rated []int
	// bound rows: variable index with lower/upper values.
	bounds []boundRow
	slack  int
	// es is the reusable evaluation scratch: eval is a pure value-refill
	// into it (see evalscratch.go). Installed by SolveACOPF — from the
	// Context cache when one is supplied, fresh otherwise.
	es *evalScratch
}

type boundRow struct {
	v     int
	val   float64
	isLow bool // h = val − x[v] ≤ 0 for lower bounds, x[v] − val ≤ 0 otherwise
}

func (a *acopf) nx() int { return 2*a.nb + 2*len(a.gens) }
func (a *acopf) ngEq() int {
	return 2*a.nb + 1
}
func (a *acopf) nIneq() int {
	return 2*len(a.rated) + len(a.bounds)
}

// variable index helpers
func (a *acopf) ixVa(bus int) int { return bus }
func (a *acopf) ixVm(bus int) int { return a.nb + bus }
func (a *acopf) ixPg(g int) int   { return 2*a.nb + g }
func (a *acopf) ixQg(g int) int   { return 2*a.nb + len(a.gens) + g }

func newACOPF(n *model.Network) (*acopf, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	a := &acopf{net: n, y: model.BuildYbus(n), base: n.BaseMVA, nb: len(n.Buses), slack: n.SlackBus()}
	a.genOf = make([][]int, a.nb)
	for gi, g := range n.Gens {
		if !g.InService {
			continue
		}
		a.genOf[g.Bus] = append(a.genOf[g.Bus], len(a.gens))
		a.gens = append(a.gens, gi)
	}
	if len(a.gens) == 0 {
		return nil, fmt.Errorf("opf: %s has no in-service generators", n.Name)
	}
	a.nbrs = make([][]int, a.nb)
	a.nbrv = make([][]complex128, a.nb)
	for p, nz := range a.y.NZ {
		if nz[0] != nz[1] {
			a.nbrs[nz[0]] = append(a.nbrs[nz[0]], nz[1])
			a.nbrv[nz[0]] = append(a.nbrv[nz[0]], a.y.NZv[p])
		}
	}
	for k, br := range n.Branches {
		if br.InService && br.RateMVA > 0 {
			a.rated = append(a.rated, k)
		}
	}
	// Bounds: Vm for every bus, Pg and Qg for every in-service generator.
	for i, b := range n.Buses {
		a.bounds = append(a.bounds,
			boundRow{v: a.ixVm(i), val: b.VMin, isLow: true},
			boundRow{v: a.ixVm(i), val: b.VMax})
	}
	for p, gi := range a.gens {
		g := n.Gens[gi]
		a.bounds = append(a.bounds,
			boundRow{v: a.ixPg(p), val: g.PMin / a.base, isLow: true},
			boundRow{v: a.ixPg(p), val: g.PMax / a.base},
			boundRow{v: a.ixQg(p), val: g.QMin / a.base, isLow: true},
			boundRow{v: a.ixQg(p), val: g.QMax / a.base})
	}
	return a, nil
}

// initialPoint seeds the solver from the case's stored operating point —
// or from a previous solution when warm-starting — nudged strictly inside
// the bounds.
func (a *acopf) initialPoint(start *Solution) []float64 {
	x := make([]float64, a.nx())
	warm := start != nil &&
		len(start.Voltages.Vm) == a.nb && len(start.GenP) == len(a.net.Gens)
	for i, b := range a.net.Buses {
		vm, va := b.Vm, b.Va
		if warm {
			vm, va = start.Voltages.Vm[i], start.Voltages.Va[i]
		}
		x[a.ixVa(i)] = va
		x[a.ixVm(i)] = clampInterior(vm, b.VMin, b.VMax)
	}
	for p, gi := range a.gens {
		g := a.net.Gens[gi]
		pg, qg := g.P, (g.QMin+g.QMax)/2
		if warm {
			pg, qg = start.GenP[gi], start.GenQ[gi]
		}
		x[a.ixPg(p)] = clampInterior(pg, g.PMin, g.PMax) / a.base
		x[a.ixQg(p)] = clampInterior(qg, g.QMin, g.QMax) / a.base
	}
	return x
}

func clampInterior(v, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	margin := 0.02 * (hi - lo)
	if v < lo+margin {
		return lo + margin
	}
	if v > hi-margin {
		return hi - margin
	}
	return v
}

// scratch returns the problem's evalScratch, laying out a private one on
// first use when no Context supplied it.
func (a *acopf) scratch() *evalScratch {
	if a.es == nil {
		a.es = newEvalScratch(a)
	}
	return a.es
}

// eval computes objective, constraints and Jacobians at x — as a pure
// value-refill of the problem's evalScratch: every row pattern (columns
// and their order, laid out by newEvalScratch) is fixed, only values are
// overwritten. It refreshes the scratch's trig cache for x's angles, which
// the hessian at the same point then reuses. At steady state the call
// allocates nothing.
func (a *acopf) eval(x []float64) *nlpEval {
	nb, base := a.nb, a.base
	va := x[:nb]
	vm := x[nb : 2*nb]
	es := a.scratch()
	ev := &es.ev
	es.accumulateLoads(a)
	cos, sin := es.trig(a, va)

	// Objective: generation cost in $/h over MW dispatch, times
	// costScale. Grad is only ever nonzero at Pg positions; every other
	// entry was zeroed at layout time and is never written.
	ev.F = 0
	for p, gi := range a.gens {
		g := a.net.Gens[gi]
		pmw := x[a.ixPg(p)] * base
		ev.F += g.Cost.At(pmw) * costScale
		ev.Grad[a.ixPg(p)] = g.Cost.Marginal(pmw) * base * costScale
	}

	// Nodal balance: g_P[i] = P_i(V) − ΣPg + Pd ; g_Q analogous. Row
	// layout: [Va_i, Vm_i, (Va_k, Vm_k) per neighbor, then unit entries
	// whose −1 values are constant].
	var tp, tq pairTerm
	e := 0 // flattened neighbour entry
	for i := 0; i < nb; i++ {
		yii := a.y.Diag(i)
		gii, bii := real(yii), imag(yii)
		pi := gii * vm[i] * vm[i]
		qi := -bii * vm[i] * vm[i]
		rowP := ev.DG[i]
		rowQ := ev.DG[nb+i]
		rowP[0].val = 0
		rowP[1].val = 2 * gii * vm[i]
		rowQ[0].val = 0
		rowQ[1].val = -2 * bii * vm[i]
		for t, k := range a.nbrs[i] {
			yik := a.nbrv[i][t]
			gik, bik := real(yik), imag(yik)
			pairGrad(&tp, gik, bik, vm[i], vm[k], cos[e], sin[e])
			pairGrad(&tq, -bik, gik, vm[i], vm[k], cos[e], sin[e])
			e++
			pi += tp.Val
			qi += tq.Val
			rowP[0].val += tp.Grad[0]
			rowP[1].val += tp.Grad[2]
			rowP[2+2*t].val = tp.Grad[1]
			rowP[3+2*t].val = tp.Grad[3]
			rowQ[0].val += tq.Grad[0]
			rowQ[1].val += tq.Grad[2]
			rowQ[2+2*t].val = tq.Grad[1]
			rowQ[3+2*t].val = tq.Grad[3]
		}
		ev.G[i] = pi + es.loadP[i]/base
		ev.G[nb+i] = qi + es.loadQ[i]/base
		for _, p := range a.genOf[i] {
			ev.G[i] -= x[a.ixPg(p)]
			ev.G[nb+i] -= x[a.ixQg(p)]
		}
	}
	// Slack angle pin (row pattern and value are both constant).
	ev.G[2*nb] = va[a.slack] - a.net.Buses[a.slack].Va

	// Branch MVA limits at both ends: |S|² − rate² ≤ 0 (p.u.), with the
	// 4-entry Jacobian rows laid out as [Va_i, Va_k, Vm_i, Vm_k] per
	// metered end.
	for ri, k := range a.rated {
		br := a.net.Branches[k]
		rmax := br.RateMVA / a.base
		r2 := rmax * rmax
		ef, et := es.ratedNbr[ri][0], es.ratedNbr[ri][1]
		ev.H[2*ri] = flowRowInto(ev.DH[2*ri], &tp, &tq, a.y.Yff[k], a.y.Yft[k], vm[br.From], vm[br.To], cos[ef], sin[ef], r2)
		ev.H[2*ri+1] = flowRowInto(ev.DH[2*ri+1], &tp, &tq, a.y.Ytt[k], a.y.Ytf[k], vm[br.To], vm[br.From], cos[et], sin[et], r2)
	}
	// Linear variable bounds (row values are the constant ∓1).
	off := 2 * len(a.rated)
	for bi, b := range a.bounds {
		if b.isLow {
			ev.H[off+bi] = b.val - x[b.v]
		} else {
			ev.H[off+bi] = x[b.v] - b.val
		}
	}
	return ev
}

// flowEnd writes the metered-end active and reactive flows of one branch
// end into tp and tq — value and gradient over the block (θi, θk, Vi, Vk),
// self-admittance quadratic included. yii is the self admittance at the
// metered end, yik the transfer admittance, and (c, s) the cos/sin of
// θi − θk.
func flowEnd(tp, tq *pairTerm, yii, yik complex128, vi, vk, c, s float64) {
	gii, bii := real(yii), imag(yii)
	gik, bik := real(yik), imag(yik)
	pairGrad(tp, gik, bik, vi, vk, c, s)
	pairGrad(tq, -bik, gik, vi, vk, c, s)
	tp.Val += gii * vi * vi
	tq.Val += -bii * vi * vi
	tp.Grad[2] += 2 * gii * vi
	tq.Grad[2] += -2 * bii * vi
}

// flowRowInto returns h = P² + Q² − r2 for one branch end and refills its
// Jacobian row in place; tp and tq are scratch terms.
func flowRowInto(row []jentry, tp, tq *pairTerm, yii, yik complex128, vi, vk, c, s, r2 float64) float64 {
	flowEnd(tp, tq, yii, yik, vi, vk, c, s)
	for j := 0; j < 4; j++ {
		row[j].val = 2*tp.Val*tp.Grad[j] + 2*tq.Val*tq.Grad[j]
	}
	return tp.Val*tp.Val + tq.Val*tq.Val - r2
}

// hessian emits the Lagrangian Hessian ∇²f + Σλ∇²g + Σμ∇²h into sink,
// reading cos/sin from the scratch's trig cache (refreshed here only when
// eval has not already computed it at x's angles).
//
// The emission is STRUCTURAL: every block is emitted on every call, in the
// same order, with zero multipliers included — the historical
// value-dependent drops (skipping buses with λ==0, branch ends with μ==0,
// and exactly-zero block entries) made the sparsity pattern change between
// interior-point iterations, which both blocked any compiled-pattern
// approach and left the fill-reducing ordering computed on the
// artificially-sparse iteration-0 system (where λ is all zero, so the
// entire equality-Hessian block was absent). See nlp.hess and kkt.go for
// the contract.
func (a *acopf) hessian(x, lam, mu []float64, sink *kktSink) {
	nb, base := a.nb, a.base
	va := x[:nb]
	vm := x[nb : 2*nb]
	es := a.scratch()
	cos, sin := es.trig(a, va)

	// Objective: 2·c2·base²·costScale on the Pg diagonal.
	for p, gi := range a.gens {
		c2 := a.net.Gens[gi].Cost.C2
		sink.emit(a.ixPg(p), a.ixPg(p), 2*c2*base*base*costScale)
	}

	// Equality part: weighted second derivatives of nodal injections.
	var tp, tq pairTerm
	e := 0 // flattened neighbour entry
	for i := 0; i < nb; i++ {
		lp, lq := lam[i], lam[nb+i]
		yii := a.y.Diag(i)
		sink.emit(a.ixVm(i), a.ixVm(i), lp*2*real(yii)+lq*(-2*imag(yii)))
		for t, k := range a.nbrs[i] {
			yik := a.nbrv[i][t]
			gik, bik := real(yik), imag(yik)
			pairHess(&tp, gik, bik, vm[i], vm[k], cos[e], sin[e])
			pairHess(&tq, -bik, gik, vm[i], vm[k], cos[e], sin[e])
			e++
			cols := [4]int{a.ixVa(i), a.ixVa(k), a.ixVm(i), a.ixVm(k)}
			sink.addBlock(cols, &tp.Hess, lp)
			sink.addBlock(cols, &tq.Hess, lq)
		}
	}

	// Inequality part: flow constraints only (bounds are linear). The mu
	// layout matches eval: two rows per rated branch, then bounds.
	for ri, k := range a.rated {
		br := a.net.Branches[k]
		ef, et := es.ratedNbr[ri][0], es.ratedNbr[ri][1]
		a.addFlowHessian(sink, &tp, &tq, br.From, br.To, a.y.Yff[k], a.y.Yft[k], mu[2*ri], vm, cos[ef], sin[ef])
		a.addFlowHessian(sink, &tp, &tq, br.To, br.From, a.y.Ytt[k], a.y.Ytf[k], mu[2*ri+1], vm, cos[et], sin[et])
	}
}

// addFlowHessian accumulates w·∇²(P²+Q²) for one branch end:
// ∇²h = 2(∇P∇Pᵀ + P∇²P + ∇Q∇Qᵀ + Q∇²Q). All 16 block entries are emitted
// unconditionally (structural emission contract). tp and tq are scratch
// terms; (c, s) is the cos/sin of θ_bi − θ_bk.
func (a *acopf) addFlowHessian(sink *kktSink, tp, tq *pairTerm, bi, bk int, yii, yik complex128, w float64, vm []float64, c, s float64) {
	vi, vk := vm[bi], vm[bk]
	flowEnd(tp, tq, yii, yik, vi, vk, c, s)
	gik, bik := real(yik), imag(yik)
	pairHess(tp, gik, bik, vi, vk, c, s)
	pairHess(tq, -bik, gik, vi, vk, c, s)
	// Self-admittance quadratic adds to the (Vi, Vi) second derivative.
	tp.Hess[2][2] += 2 * real(yii)
	tq.Hess[2][2] += -2 * imag(yii)

	p, q := tp.Val, tq.Val
	gp, gq := &tp.Grad, &tq.Grad
	hp, hq := &tp.Hess, &tq.Hess
	cols := [4]int{a.ixVa(bi), a.ixVa(bk), a.ixVm(bi), a.ixVm(bk)}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := 2 * (gp[r]*gp[c] + p*hp[r][c] + gq[r]*gq[c] + q*hq[r][c])
			sink.emit(cols[r], cols[c], w*v)
		}
	}
}
