// Package sparse provides compressed sparse column (CSC) matrices,
// fill-reducing orderings (minimum-degree, the default, and reverse
// Cuthill-McKee), a Gilbert-Peierls LU factorization with threshold
// partial pivoting, and a static-pivot LDLᵀ factorization for symmetric
// quasi-definite systems.
//
// This is the production linear-solver path for GridMind: power flow
// Jacobians (LU) and interior-point KKT systems (LDL) are assembled in
// triplet (COO) form or compiled patterns, ordered to reduce fill, and
// factorized here.
// Package mat provides the dense reference implementation used for
// verification and the sparse-vs-dense ablation (A1 in DESIGN.md).
//
// Steady-state hot paths avoid per-iteration symbolic work entirely:
//
//   - CompilePattern builds a CSC with a fixed sparsity pattern once and
//     returns a slot map, so each numeric pass refills Values() in place
//     with no COO append/sort/dedup.
//   - LU.Refactorize recomputes factor values for a same-pattern matrix
//     while reusing the symbolic analysis (fill pattern, pivot order) of
//     the original Factorize — the KLU-style fast path Newton iterations
//     after the first ride on.
//   - LU.SolveInto performs triangular solves into caller-owned buffers
//     with zero allocation; concurrent solves on one factorization are
//     safe when each goroutine owns its buffers (ptdf fans columns out
//     this way).
package sparse

import (
	"fmt"
	"sort"
)

// COO is a triplet-form builder for sparse matrices. Duplicate entries are
// summed when the matrix is compressed.
type COO struct {
	rows, cols int
	i, j       []int
	v          []float64
}

// NewCOO returns an empty triplet builder for a rows×cols matrix.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Add appends the entry (i, j, v). Zero values are kept so that explicit
// structural zeros can be expressed; they are harmless downstream.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("sparse: COO.Add index (%d,%d) out of range %dx%d", i, j, c.rows, c.cols))
	}
	c.i = append(c.i, i)
	c.j = append(c.j, j)
	c.v = append(c.v, v)
}

// NNZ returns the number of accumulated triplets (before duplicate merging).
func (c *COO) NNZ() int { return len(c.v) }

// Dims returns the matrix dimensions.
func (c *COO) Dims() (int, int) { return c.rows, c.cols }

// ToCSC compresses the triplets into CSC form, summing duplicates.
func (c *COO) ToCSC() *CSC {
	n := c.cols
	count := make([]int, n+1)
	for _, col := range c.j {
		count[col+1]++
	}
	for k := 0; k < n; k++ {
		count[k+1] += count[k]
	}
	colPtr := make([]int, n+1)
	copy(colPtr, count)
	rowIdx := make([]int, len(c.v))
	val := make([]float64, len(c.v))
	next := make([]int, n)
	copy(next, colPtr[:n])
	for k, col := range c.j {
		p := next[col]
		rowIdx[p] = c.i[k]
		val[p] = c.v[k]
		next[col]++
	}
	m := &CSC{rows: c.rows, cols: c.cols, colPtr: colPtr, rowIdx: rowIdx, val: val}
	m.sortColumns()
	m.sumDuplicates()
	return m
}

// CSC is a compressed sparse column matrix.
type CSC struct {
	rows, cols int
	colPtr     []int
	rowIdx     []int
	val        []float64
}

// Dims returns the matrix dimensions.
func (m *CSC) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int { return len(m.val) }

// sortColumns sorts row indices within each column.
func (m *CSC) sortColumns() {
	for j := 0; j < m.cols; j++ {
		lo, hi := m.colPtr[j], m.colPtr[j+1]
		idx := m.rowIdx[lo:hi]
		vv := m.val[lo:hi]
		sort.Sort(&colSorter{idx: idx, val: vv})
	}
}

type colSorter struct {
	idx []int
	val []float64
}

func (s *colSorter) Len() int           { return len(s.idx) }
func (s *colSorter) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s *colSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// sumDuplicates merges consecutive equal row indices within sorted columns.
func (m *CSC) sumDuplicates() {
	nz := 0
	colPtr := make([]int, m.cols+1)
	for j := 0; j < m.cols; j++ {
		colPtr[j] = nz
		lo, hi := m.colPtr[j], m.colPtr[j+1]
		for p := lo; p < hi; {
			r := m.rowIdx[p]
			v := m.val[p]
			p++
			for p < hi && m.rowIdx[p] == r {
				v += m.val[p]
				p++
			}
			m.rowIdx[nz] = r
			m.val[nz] = v
			nz++
		}
	}
	colPtr[m.cols] = nz
	m.colPtr = colPtr
	m.rowIdx = m.rowIdx[:nz]
	m.val = m.val[:nz]
}

// At returns the value at (i, j). O(log nnz(col j)).
func (m *CSC) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: At index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	if p := m.Pos(i, j); p >= 0 {
		return m.val[p]
	}
	return 0
}

// Has reports whether (i, j) is a structural entry of the pattern
// (regardless of its stored value). O(log nnz(col j)).
func (m *CSC) Has(i, j int) bool { return m.Pos(i, j) >= 0 }

// Pos returns the index into Values() where entry (i, j) is stored, or -1
// when (i, j) is out of range or not in the pattern. O(log nnz(col j)).
func (m *CSC) Pos(i, j int) int {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		return -1
	}
	lo, hi := m.colPtr[j], m.colPtr[j+1]
	idx := m.rowIdx[lo:hi]
	if k := sort.SearchInts(idx, i); k < len(idx) && idx[k] == i {
		return lo + k
	}
	return -1
}

// MulVec computes y = M·x.
func (m *CSC) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: %dx%d by %d", m.rows, m.cols, len(x)))
	}
	y := make([]float64, m.rows)
	m.MulVecInto(y, x)
	return y
}

// MulVecInto computes dst = M·x into a caller-owned buffer without
// allocating. dst must not alias x.
func (m *CSC) MulVecInto(dst, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("sparse: MulVecInto dimension mismatch: %dx%d by %d into %d", m.rows, m.cols, len(x), len(dst)))
	}
	clear(dst)
	for j := 0; j < m.cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			dst[m.rowIdx[p]] += m.val[p] * xj
		}
	}
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

// ColView calls fn(row, value) for each stored entry of column j in
// ascending row order.
func (m *CSC) ColView(j int, fn func(i int, v float64)) {
	for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
		fn(m.rowIdx[p], m.val[p])
	}
}

// Transpose returns Mᵀ as a new CSC matrix.
func (m *CSC) Transpose() *CSC {
	t := NewCOO(m.cols, m.rows)
	for j := 0; j < m.cols; j++ {
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			t.Add(j, m.rowIdx[p], m.val[p])
		}
	}
	return t.ToCSC()
}

// Dense expands the matrix to a row-major [][]float64, for tests and
// small-system fallbacks.
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
