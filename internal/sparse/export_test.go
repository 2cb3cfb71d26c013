package sparse

import (
	"fmt"
	"sort"
	"testing"
)

// RandomSparse exposes randomSparse to the external tests.
var RandomSparse = randomSparse

// MinDegreeReference is the differential reference of MinDegree: a
// standalone classical dense-elimination-graph minimum-degree ordering
// over symmetricAdjacency, ties broken toward the lowest node index, which
// MinDegree — BlockMinDegree on singleton supernodes — must match exactly.
func MinDegreeReference(m *CSC) []int {
	n := m.cols
	adjLists := symmetricAdjacency(m)
	adj := make([]map[int]bool, n)
	for v, nbrs := range adjLists {
		adj[v] = make(map[int]bool, len(nbrs)*2)
		for _, w := range nbrs {
			adj[v][w] = true
		}
	}

	perm := make([]int, 0, n)
	eliminated := make([]bool, n)
	nbrs := make([]int, 0, 64)
	for len(perm) < n {
		best, bestDeg := -1, int(^uint(0)>>1)
		for v := 0; v < n; v++ {
			if !eliminated[v] && len(adj[v]) < bestDeg {
				best, bestDeg = v, len(adj[v])
			}
		}
		perm = append(perm, best)
		eliminated[best] = true
		nbrs = nbrs[:0]
		for w := range adj[best] {
			nbrs = append(nbrs, w)
			delete(adj[w], best)
		}
		adj[best] = nil
		for a := 0; a < len(nbrs); a++ {
			for b := a + 1; b < len(nbrs); b++ {
				adj[nbrs[a]][nbrs[b]] = true
				adj[nbrs[b]][nbrs[a]] = true
			}
		}
	}
	return perm
}

// Dims returns the matrix dimensions.
func (m *CSC) Dims() (int, int) { return m.rows, m.cols }

// MulVec computes y = M·x.
func (m *CSC) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: %dx%d by %d", m.rows, m.cols, len(x)))
	}
	y := make([]float64, m.rows)
	m.MulVecInto(y, x)
	return y
}

// MulVecT computes y = Mᵀ·x without forming the transpose.
func (m *CSC) MulVecT(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("sparse: MulVecT dimension mismatch: %dx%d^T by %d", m.rows, m.cols, len(x)))
	}
	y := make([]float64, m.cols)
	for j := 0; j < m.cols; j++ {
		var s float64
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			s += m.val[p] * x[m.rowIdx[p]]
		}
		y[j] = s
	}
	return y
}

// Dense expands the matrix to a row-major [][]float64.
func (m *CSC) Dense() [][]float64 {
	out := make([][]float64, m.rows)
	for i := range out {
		out[i] = make([]float64, m.cols)
	}
	for j := 0; j < m.cols; j++ {
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			out[m.rowIdx[p]][j] = m.val[p]
		}
	}
	return out
}

// symmetricAdjacency builds the adjacency lists of the undirected graph of
// M + Mᵀ, excluding self loops.
func symmetricAdjacency(m *CSC) [][]int {
	n := m.cols
	adj := make([][]int, n)
	add := func(a, b int) {
		if a != b {
			adj[a] = append(adj[a], b)
		}
	}
	for j := 0; j < n; j++ {
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			i := m.rowIdx[p]
			add(i, j)
			add(j, i)
		}
	}
	// Deduplicate.
	for v := range adj {
		sort.Ints(adj[v])
		out := adj[v][:0]
		prev := -1
		for _, w := range adj[v] {
			if w != prev {
				out = append(out, w)
				prev = w
			}
		}
		adj[v] = out
	}
	return adj
}

// CheckLDLKernelsMatchReference factors a (both triangles stored) under
// perm and shift twice, with LDL.Factor and with the reference body
// ldlFactorRef, and fails t unless L and D agree bit for bit. It then
// requires LDL.SolveInto on b and CSC.MulVecInto on b to match their
// reference bodies bit for bit as well.
func CheckLDLKernelsMatchReference(t *testing.T, what string, a *CSC, perm []int, shift, b []float64) {
	t.Helper()
	got, err := NewLDL(a, perm, shift)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := NewLDL(a, perm, shift)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Factor(a); err != nil {
		t.Fatalf("%s: Factor: %v", what, err)
	}
	if err := ldlFactorRef(want, a); err != nil {
		t.Fatalf("%s: reference Factor: %v", what, err)
	}
	sameBits(t, what+" L", got.lx, want.lx)
	sameBits(t, what+" D", got.d, want.d)
	n := a.cols
	x, xRef := make([]float64, n), make([]float64, n)
	if err := got.SolveInto(x, b, make([]float64, n)); err != nil {
		t.Fatal(err)
	}
	ldlSolveRef(want, xRef, b, make([]float64, n))
	sameBits(t, what+" solve", x, xRef)
	a.MulVecInto(x, b)
	mulVecIntoRef(a, xRef, b)
	sameBits(t, what+" MulVecInto", x, xRef)
}
