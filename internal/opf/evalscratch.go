package opf

import (
	"fmt"
	"math"
)

// evalScratch is the compile-once/refill-in-place treatment for nlpEval,
// the same recipe kkt.go applies to the KKT matrix one level down: the
// DG/DH Jacobian row patterns are REQUIRED to be structural (the compiled
// KKT slot map depends on it and verifies every emission), so their
// columns are laid out exactly once per problem structure and every later
// acopf.eval call only overwrites values in place. All rows share one
// jentry slab and Grad/G/H are preallocated, so a steady-state IPM
// iteration allocates nothing (pinned by TestIPMSteadyStateZeroAllocs).
//
// The scratch belongs to the compiled problem an opf.Context keeps, next
// to its KKT pattern, and lives as long as the problem's compile key
// matches: rating-value, load, cost and start-point changes keep it;
// any key change rebuilds it with the problem. Like the Context it
// rides in, it is NOT safe for concurrent use — the returned *nlpEval is
// reused by every eval call on the same problem.
//
// The scratch also caches the trigonometry of one iterate: cos and sin of
// θi − θk for every Ybus neighbour entry. eval refreshes the cache and
// hessian reuses it, so each interior-point iterate evaluates one cos/sin
// pair per neighbour entry instead of up to eight per branch. Rated-branch
// flow terms read the entries of their two ends, (from→to) and (to→from):
// every in-service branch is a structural Ybus entry both ways and
// self-loops fail validation, so both entries exist and hold exactly the
// angles the branch terms need. This file is the one place in the package
// that calls math.Cos/math.Sin (a CI grep keeps it that way).
type evalScratch struct {
	ev nlpEval
	// loadP/loadQ are per-bus demand aggregates, re-accumulated in one
	// pass over the load list at each eval (values are NOT structural —
	// a Context survives load changes, so they cannot be cached).
	loadP, loadQ []float64
	// cos/sin hold cos(θi − θk) and sin(θi − θk) per neighbour entry,
	// flattened in nbrs order (bus i, then its neighbours k). They are
	// keyed on the angle vector itself: trigVa is a copy of the angles
	// they were computed at (trigOK false until the first refresh), and
	// a call at angles that differ in any bit recomputes them. A
	// carried-over scratch stays valid across problems because the
	// entries depend on the angles and the structural nbrs layout only.
	cos, sin []float64
	trigVa   []float64
	trigOK   bool
	// ratedNbr holds, per rated branch, the neighbour-entry positions of
	// its from end (From→To) and its to end (To→From).
	ratedNbr [][2]int
	// pairs lists the Ybus neighbour pairs i < k in the order hessian
	// emits their blocks; pairRated holds the rated branches of each pair,
	// pair by pair (see busPair).
	pairs     []busPair
	pairRated []int
}

// busPair is one Ybus neighbour pair i < k: the unit of the Hessian
// emission, one 4×4 block over (Va_i, Va_k, Vm_i, Vm_k).
type busPair struct {
	i, k int
	// ti and tk are the positions of k in nbrs[i] and of i in nbrs[k];
	// ik and ki are the flattened neighbour entries of i→k and k→i.
	ti, tk, ik, ki int
	// pairRated[r0:r1] are the rated branches (indices into rated)
	// joining i and k, parallel ones included.
	r0, r1 int
}

// newEvalScratch lays out the row patterns of one acopf problem. The
// emission order per row matches the historical append-based eval exactly:
// P-row of bus i is [Va_i, Vm_i, (Va_k, Vm_k) per Ybus neighbor, Pg per
// unit at i]; Q-rows mirror with Qg; DH is two 4-entry rows
// [Va_i, Va_k, Vm_i, Vm_k] per rated branch end followed by one-entry
// bound rows whose ∓1 values are themselves constant.
func newEvalScratch(a *acopf) *evalScratch {
	nb := a.nb
	// nbrOff[i] is the flattened position of bus i's first neighbour entry.
	nbrOff := make([]int, nb+1)
	for i, nbrs := range a.nbrs {
		nbrOff[i+1] = nbrOff[i] + len(nbrs)
	}
	entry := func(i, k int) int {
		for t, j := range a.nbrs[i] {
			if j == k {
				return nbrOff[i] + t
			}
		}
		panic(fmt.Sprintf("opf: rated branch %d-%d has no Ybus entry", i, k))
	}
	es := &evalScratch{
		loadP:    make([]float64, nb),
		loadQ:    make([]float64, nb),
		cos:      make([]float64, nbrOff[nb]),
		sin:      make([]float64, nbrOff[nb]),
		trigVa:   make([]float64, nb),
		ratedNbr: make([][2]int, len(a.rated)),
	}
	for ri, k := range a.rated {
		br := a.net.Branches[k]
		es.ratedNbr[ri] = [2]int{entry(br.From, br.To), entry(br.To, br.From)}
	}
	// The neighbour pairs, and their rated branches bucketed by pair.
	pairOf := make([]int, nbrOff[nb]) // pair index of either directed entry
	es.pairs = make([]busPair, 0, nbrOff[nb]/2)
	for i, nbrs := range a.nbrs {
		for t, k := range nbrs {
			if k > i {
				ki := entry(k, i)
				pairOf[nbrOff[i]+t], pairOf[ki] = len(es.pairs), len(es.pairs)
				es.pairs = append(es.pairs, busPair{i: i, k: k, ti: t, tk: ki - nbrOff[k], ik: nbrOff[i] + t, ki: ki})
			}
		}
	}
	// Count each pair's rated branches into r1, turn the counts into
	// starts (r1 becomes the fill cursor), and place them.
	for _, e := range es.ratedNbr {
		es.pairs[pairOf[e[0]]].r1++
	}
	end := 0
	for p := range es.pairs {
		bp := &es.pairs[p]
		bp.r0, bp.r1, end = end, end, end+bp.r1
	}
	es.pairRated = make([]int, len(a.rated))
	for ri, e := range es.ratedNbr {
		bp := &es.pairs[pairOf[e[0]]]
		es.pairRated[bp.r1] = ri
		bp.r1++
	}
	ev := &es.ev
	ev.Grad = make([]float64, a.nx())
	ev.G = make([]float64, a.ngEq())
	ev.H = make([]float64, a.nIneq())
	ev.DG = make([][]jentry, a.ngEq())
	ev.DH = make([][]jentry, a.nIneq())

	total := 1 + 8*len(a.rated) + len(a.bounds)
	for i := 0; i < nb; i++ {
		total += 2 * (2 + 2*len(a.nbrs[i]) + len(a.genOf[i]))
	}
	slab := make([]jentry, 0, total)
	row := func(ents ...jentry) []jentry {
		start := len(slab)
		slab = append(slab, ents...)
		return slab[start:len(slab):len(slab)]
	}

	for i := 0; i < nb; i++ {
		nrow := 2 + 2*len(a.nbrs[i]) + len(a.genOf[i])
		startP := len(slab)
		slab = append(slab, jentry{col: a.ixVa(i)}, jentry{col: a.ixVm(i)})
		for _, k := range a.nbrs[i] {
			slab = append(slab, jentry{col: a.ixVa(k)}, jentry{col: a.ixVm(k)})
		}
		for _, p := range a.genOf[i] {
			slab = append(slab, jentry{col: a.ixPg(p), val: -1})
		}
		ev.DG[i] = slab[startP : startP+nrow : startP+nrow]
		startQ := len(slab)
		slab = append(slab, jentry{col: a.ixVa(i)}, jentry{col: a.ixVm(i)})
		for _, k := range a.nbrs[i] {
			slab = append(slab, jentry{col: a.ixVa(k)}, jentry{col: a.ixVm(k)})
		}
		for _, p := range a.genOf[i] {
			slab = append(slab, jentry{col: a.ixQg(p), val: -1})
		}
		ev.DG[nb+i] = slab[startQ : startQ+nrow : startQ+nrow]
	}
	ev.DG[2*nb] = row(jentry{col: a.ixVa(a.slack), val: 1})

	for ri, k := range a.rated {
		br := a.net.Branches[k]
		ev.DH[2*ri] = row(
			jentry{col: a.ixVa(br.From)}, jentry{col: a.ixVa(br.To)},
			jentry{col: a.ixVm(br.From)}, jentry{col: a.ixVm(br.To)})
		ev.DH[2*ri+1] = row(
			jentry{col: a.ixVa(br.To)}, jentry{col: a.ixVa(br.From)},
			jentry{col: a.ixVm(br.To)}, jentry{col: a.ixVm(br.From)})
	}
	off := 2 * len(a.rated)
	for bi, b := range a.bounds {
		v := 1.0
		if b.isLow {
			v = -1
		}
		ev.DH[off+bi] = row(jentry{col: b.v, val: v})
	}
	return es
}

// accumulateLoads refreshes the per-bus demand aggregates in one pass over
// the load list (instead of an O(nb·nLoads) BusLoad sweep per iteration).
func (es *evalScratch) accumulateLoads(a *acopf) {
	for i := range es.loadP {
		es.loadP[i], es.loadQ[i] = 0, 0
	}
	for _, l := range a.net.Loads {
		if l.InService {
			es.loadP[l.Bus] += l.P
			es.loadQ[l.Bus] += l.Q
		}
	}
}

// trig returns the cos/sin cache at angles va, recomputing it only when va
// differs in any bit from the angles of the previous refresh. Keying on
// the angles rather than on call order keeps a hessian call at a point
// eval never saw exact.
func (es *evalScratch) trig(a *acopf, va []float64) (cos, sin []float64) {
	if !es.trigOK || !sameBits(es.trigVa, va) {
		e := 0
		for i, nbrs := range a.nbrs {
			for _, k := range nbrs {
				th := va[i] - va[k]
				es.cos[e], es.sin[e] = math.Cos(th), math.Sin(th)
				e++
			}
		}
		copy(es.trigVa, va)
		es.trigOK = true
	}
	return es.cos, es.sin
}

func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
