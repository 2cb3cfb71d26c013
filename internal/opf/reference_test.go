package opf

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// referenceKKT is the from-scratch Newton-direction step the fixed-pattern
// kktSystem is pinned against: build a COO every iteration, compress it to
// CSC, reuse an RCM ordering computed on the first iteration's pattern,
// and run a full symbolic+numeric LU factorization with threshold partial
// pivoting at 0.1 and no shift. It shares no linear algebra with the
// production static LDLᵀ, so the differential harness checks the shift,
// the refinement and the order together.
type referenceKKT struct {
	colPerm []int
	// lu is the last solve's factorization, which resolve solves on.
	lu *sparse.LU
}

func (rk *referenceKKT) solve(p *nlp, ev *nlpEval, x, lam, mu, z, rhs []float64) ([]float64, error) {
	dim := p.nx + p.ng
	kkt := sparse.NewCOO(dim, dim)
	assembleKKT(p, ev, x, lam, mu, z, &kktSink{fn: kkt.Add})
	csc := kkt.ToCSC()
	if rk.colPerm == nil {
		rk.colPerm = rcm(csc, dim)
	}
	lu, err := sparse.Factorize(csc, sparse.Options{ColPerm: rk.colPerm, DiagPreference: 0.1})
	if err != nil {
		return nil, fmt.Errorf("singular KKT system: %w", err)
	}
	rk.lu = lu
	return rk.resolve(rhs)
}

func (rk *referenceKKT) resolve(rhs []float64) ([]float64, error) {
	sol, err := rk.lu.Solve(rhs)
	if err != nil {
		return nil, fmt.Errorf("singular KKT system: %w", err)
	}
	return sol, nil
}

// solveACOPFReference is SolveACOPF (cold, default tolerances) with the
// Newton direction computed by referenceKKT.
func solveACOPFReference(n *model.Network) (*Solution, error) {
	prob, err := newACOPF(n)
	if err != nil {
		return nil, err
	}
	x0, _ := prob.initialPoint(nil)
	p := &nlp{
		nx: prob.nx(), ng: prob.ngEq(), nh: prob.nIneq(),
		x0: x0, eval: prob.eval, hess: prob.hessian,
	}
	res, err := solveIPM(p, ipmOptions{kkt: &referenceKKT{}})
	return extractSolution(prob, res), err
}

// perBusKKT is the reference assembly of the reduced KKT matrix of an
// acopf problem, as it was emitted before the pair walk: the Lagrangian
// Hessian bus by bus (both buses of a Ybus pair emit their own P and Q
// blocks), the flow-limit Hessian of every rated branch end as its own
// block, the Gauss term of every inequality row read off ev.DH, and the
// equality border. It emits the same entries as assembleKKT over the same
// slots, term by term, in another order (28,807 emissions on case118
// against 7,975).
func perBusKKT(a *acopf, ev *nlpEval, x, lam, mu, z []float64, sink *kktSink) {
	perBusHessian(a, x, lam, mu, sink)
	for r, row := range ev.DH {
		w := mu[r] / z[r]
		for _, ea := range row {
			for _, eb := range row {
				sink.emit(ea.col, eb.col, w*ea.val*eb.val)
			}
		}
	}
	nx := a.nx()
	for i, row := range ev.DG {
		for _, e := range row {
			sink.emit(nx+i, e.col, e.val)
			sink.emit(e.col, nx+i, e.val)
		}
		sink.emit(nx+i, nx+i, 0)
	}
}

// perBusHessian emits the Lagrangian Hessian ∇²f + Σλ∇²g + Σμ∇²h bus by
// bus and branch end by branch end.
func perBusHessian(a *acopf, x, lam, mu []float64, sink *kktSink) {
	nb, base := a.nb, a.base
	vm := x[nb : 2*nb]
	es := a.scratch()
	cos, sin := es.trig(a, x[:nb])
	for p, gi := range a.gens {
		c2 := a.net.Gens[gi].Cost.C2
		sink.emit(a.ixPg(p), a.ixPg(p), 2*c2*base*base*costScale)
	}
	var tp, tq pairTerm
	e := 0
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
			addBlock(sink, cols, &tp.Hess, lp)
			addBlock(sink, cols, &tq.Hess, lq)
		}
	}
	for ri, k := range a.rated {
		br := a.net.Branches[k]
		ef, et := es.ratedNbr[ri][0], es.ratedNbr[ri][1]
		addFlowHessian(a, sink, &tp, &tq, br.From, br.To, a.y.Yff[k], a.y.Yft[k], mu[2*ri], vm, cos[ef], sin[ef])
		addFlowHessian(a, sink, &tp, &tq, br.To, br.From, a.y.Ytt[k], a.y.Ytf[k], mu[2*ri+1], vm, cos[et], sin[et])
	}
}

// addBlock emits w·H over a 4-variable block, all 16 entries.
func addBlock(sink *kktSink, cols [4]int, h *[4][4]float64, w float64) {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			sink.emit(cols[r], cols[c], w*h[r][c])
		}
	}
}

// addFlowHessian emits w·∇²(P²+Q²) for one branch end, all 16 entries.
func addFlowHessian(a *acopf, sink *kktSink, tp, tq *pairTerm, bi, bk int, yii, yik complex128, w float64, vm []float64, c, s float64) {
	vi, vk := vm[bi], vm[bk]
	flowEnd(tp, tq, yii, yik, vi, vk, c, s)
	gik, bik := real(yik), imag(yik)
	pairHess(tp, gik, bik, vi, vk, c, s)
	pairHess(tq, -bik, gik, vi, vk, c, s)
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

// compileByMap is the reference of kktSystem.compile's deduplication:
// number the distinct coordinates of one captured assembly in
// first-emission order through a hash map, compile them with
// sparse.CompilePattern, and return each emission's compiled coordinate
// and slot together with the value array the capture accumulates.
func compileByMap(p *nlp, ev *nlpEval, x, lam, mu, z []float64) ([]kktEmit, []float64) {
	dim := p.nx + p.ng
	var ri, ci []int
	seen := make(map[int64]int)
	var uniq []int
	var vals []float64
	assembleKKT(p, ev, x, lam, mu, z, &kktSink{fn: func(i, j int, v float64) {
		key := int64(i)*int64(dim) + int64(j)
		u, ok := seen[key]
		if !ok {
			u = len(ri)
			seen[key] = u
			ri = append(ri, i)
			ci = append(ci, j)
		}
		uniq = append(uniq, u)
		vals = append(vals, v)
	}})
	mat, slot := sparse.CompilePattern(dim, dim, ri, ci)
	val := mat.Values()
	emits := make([]kktEmit, len(uniq))
	for e, u := range uniq {
		s := slot[u]
		emits[e] = kktEmit{i: int32(ri[u]), j: int32(ci[u]), slot: int32(s)}
		val[s] += vals[e]
	}
	return emits, val
}

// TestRCMPermValid checks that rcm returns a permutation on a random
// unsymmetric 30×30 pattern.
func TestRCMPermValid(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewSource(3))
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(n)+rng.Float64())
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.1 {
				c.Add(i, j, rng.NormFloat64())
			}
		}
	}
	p := rcm(c.ToCSC(), n)
	if len(p) != n {
		t.Fatalf("perm length %d", len(p))
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// rcm computes a reverse Cuthill-McKee ordering of the symmetrized pattern
// of the n×n matrix m (pattern of M + Mᵀ): a breadth-first search from
// each unvisited node of lowest degree, neighbours queued by increasing
// degree, ties broken toward the lower index, the visit order reversed.
// perm[k] is the original column placed at position k.
func rcm(m *sparse.CSC, n int) []int {
	adj := make([][]int, n)
	for j := 0; j < n; j++ {
		m.ColView(j, func(i int, _ float64) {
			if i != j {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		})
	}
	for v := range adj {
		sort.Ints(adj[v])
		adj[v] = slices.Compact(adj[v])
	}
	byDegree := make([]int, n)
	for i := range byDegree {
		byDegree[i] = i
	}
	lessDegree := func(a, b int) bool {
		if len(adj[a]) != len(adj[b]) {
			return len(adj[a]) < len(adj[b])
		}
		return a < b
	}
	sort.Slice(byDegree, func(a, b int) bool { return lessDegree(byDegree[a], byDegree[b]) })

	perm := make([]int, 0, n)
	visited := make([]bool, n)
	for _, root := range byDegree {
		if visited[root] {
			continue
		}
		visited[root] = true
		queue := []int{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			perm = append(perm, v)
			var neigh []int
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					neigh = append(neigh, w)
				}
			}
			sort.Slice(neigh, func(a, b int) bool { return lessDegree(neigh[a], neigh[b]) })
			queue = append(queue, neigh...)
		}
	}
	slices.Reverse(perm)
	return perm
}
