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
	p := &nlp{
		nx: prob.nx(), ng: prob.ngEq(), nh: prob.nIneq(),
		x0: prob.initialPoint(nil), eval: prob.eval, hess: prob.hessian,
	}
	res, err := solveIPM(p, ipmOptions{kkt: &referenceKKT{}})
	return extractSolution(prob, res), err
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
