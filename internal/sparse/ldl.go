package sparse

import (
	"fmt"
	"math"
)

// LDL is a static-pivot sparse LDLᵀ factorization of a symmetric matrix:
// P·(A + S)·Pᵀ = L·D·Lᵀ, where P is the caller's fill-reducing symmetric
// order, S a fixed diagonal shift, L unit lower triangular and D diagonal.
// It follows Davis's LDL (ACM TOMS Algorithm 849): NewLDL builds the
// elimination tree and the column counts of the permuted upper triangle
// once per pattern, and Factor is the up-looking numeric phase, which
// replays the row patterns NewLDL recorded. Pivots are taken on the
// diagonal in P's order: there is no pivot search, no reach and no
// fallback, so Factor allocates nothing and costs the same multiply-adds
// on every call.
//
// Static pivoting is stable for symmetric quasi-definite matrices, which a
// saddle-point system [H Bᵀ; B 0] becomes under a shift of +δ on H's
// columns and −δ on the zero block. S is added at the pivot only; the
// matrix A is never written.
type LDL struct {
	n    int
	perm []int // perm[k] is the column of A eliminated at step k
	// The upper triangle of P·A·Pᵀ by columns: step k scatters
	// a.val[us[p]] into permuted row ui[p] ≤ k for p in up[k]..up[k+1].
	up, ui, us []int
	shift      []float64 // S in step order
	// L by columns, strictly lower part, row indices ascending.
	lp, li []int
	lx     []float64
	d      []float64
	// The row patterns of L: row k holds L(k, rc[r]), stored at lx[rp[r]],
	// for r in rs[k]..rs[k+1], columns ascending.
	rs, rc, rp []int
	y          []float64 // numeric workspace, zero between calls
}

// NewLDL runs the symbolic analysis of a symmetric matrix with a's
// pattern under the symmetric order perm (perm[k] is the column
// eliminated at step k) and fixes the diagonal shift: shift[j] is added
// to the pivot of column j, and a nil shift adds nothing. Only a's
// structure is read, and of it only the entries on or above the diagonal
// of the permuted matrix, so a must store both triangles.
func NewLDL(a *CSC, perm []int, shift []float64) (*LDL, error) {
	n := a.cols
	if a.rows != n {
		return nil, fmt.Errorf("sparse: NewLDL needs square matrix, got %dx%d", a.rows, a.cols)
	}
	if len(perm) != n {
		return nil, fmt.Errorf("sparse: NewLDL permutation length %d, want %d", len(perm), n)
	}
	if shift != nil && len(shift) != n {
		return nil, fmt.Errorf("sparse: NewLDL shift length %d, want %d", len(shift), n)
	}
	pinv := make([]int, n)
	for i := range pinv {
		pinv[i] = -1
	}
	for k, j := range perm {
		if j < 0 || j >= n || pinv[j] >= 0 {
			return nil, fmt.Errorf("sparse: NewLDL order is not a permutation of 0..%d", n-1)
		}
		pinv[j] = k
	}
	upper := (a.NNZ() + n) / 2
	f := &LDL{
		n: n, perm: perm, shift: make([]float64, n),
		up: make([]int, n+1), ui: make([]int, 0, upper), us: make([]int, 0, upper),
	}
	for k, j := range perm {
		if shift != nil {
			f.shift[k] = shift[j]
		}
		for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
			if i := pinv[a.rowIdx[p]]; i <= k {
				f.ui = append(f.ui, i)
				f.us = append(f.us, p)
			}
		}
		f.up[k+1] = len(f.ui)
	}

	// Elimination tree and column counts: row k of L is the union of the
	// tree paths from each upper entry i < k of column k up to k.
	parent := make([]int, n)
	flag := make([]int, n)
	cnt := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k], flag[k] = -1, k
		for p := f.up[k]; p < f.up[k+1]; p++ {
			for i := f.ui[p]; flag[i] != k; i = parent[i] {
				if parent[i] == -1 {
					parent[i] = k
				}
				cnt[i]++
				flag[i] = k
			}
		}
	}
	f.lp = make([]int, n+1)
	for k := 0; k < n; k++ {
		f.lp[k+1] = f.lp[k] + cnt[k]
	}
	nnz := f.lp[n]
	f.li = make([]int, nnz)
	f.lx = make([]float64, nnz)
	// The same walk again fills the row indices: rows arrive in ascending
	// k, so every column comes out sorted. Stamps k+n cannot collide with
	// the first walk's.
	next := cnt
	copy(next, f.lp[:n])
	for k := 0; k < n; k++ {
		flag[k] = k + n
		for p := f.up[k]; p < f.up[k+1]; p++ {
			for i := f.ui[p]; flag[i] != k+n; i = parent[i] {
				f.li[next[i]] = k
				next[i]++
				flag[i] = k + n
			}
		}
	}
	// Row patterns by transposing L's pattern: walking the columns in
	// ascending order lists each row's columns ascending, which is a
	// topological order for the up-looking solve.
	f.rs = make([]int, n+1)
	for _, k := range f.li {
		f.rs[k+1]++
	}
	for k := 0; k < n; k++ {
		f.rs[k+1] += f.rs[k]
	}
	f.rc = make([]int, nnz)
	f.rp = make([]int, nnz)
	copy(next, f.rs[:n])
	for i := 0; i < n; i++ {
		for p := f.lp[i]; p < f.lp[i+1]; p++ {
			k := f.li[p]
			f.rc[next[k]], f.rp[next[k]] = i, p
			next[k]++
		}
	}
	f.d = make([]float64, n)
	f.y = make([]float64, n)
	return f, nil
}

// Factor computes the numeric factorization of a, which must have the
// pattern NewLDL analysed. A pivot that is zero or not finite after the
// shift returns ErrSingular; the workspace is left zeroed either way, so
// the next Factor needs no reset.
func (f *LDL) Factor(a *CSC) error {
	n := f.n
	if a.rows != n || a.cols != n {
		return fmt.Errorf("sparse: LDL.Factor matrix is %dx%d, factorization is %dx%d", a.rows, a.cols, n, n)
	}
	y, d, val, shift := f.y, f.d, a.val, f.shift
	up, ui, us := f.up, f.ui, f.us
	lp, li, lx := f.lp, f.li, f.lx
	rs, rc, rp := f.rs, f.rc, f.rp
	// Every inner loop runs over index and value subslices of equal
	// length, so the compiler drops the bounds check on the value side.
	for k := 0; k < n; k++ {
		arows, aslots := ui[up[k]:up[k+1]], us[up[k]:up[k+1]]
		aslots = aslots[:len(arows)]
		for p, i := range arows {
			y[i] += val[aslots[p]]
		}
		dk := y[k] + shift[k]
		y[k] = 0
		// Row k of L solves L(0:k,0:k)·D·l = A(0:k,k) over its pattern;
		// the solve consumes y, so y is zero again afterwards.
		cols, pos := rc[rs[k]:rs[k+1]], rp[rs[k]:rs[k+1]]
		pos = pos[:len(cols)]
		for r, i := range cols {
			pk := pos[r]
			yi := y[i]
			y[i] = 0
			rows, vals := li[lp[i]:pk], lx[lp[i]:pk]
			vals = vals[:len(rows)]
			for q, j := range rows {
				y[j] -= vals[q] * yi
			}
			l := yi / d[i]
			dk -= l * yi
			lx[pk] = l
		}
		if dk == 0 || math.IsNaN(dk) || math.IsInf(dk, 0) {
			return fmt.Errorf("%w: pivot %v at step %d (column %d)", ErrSingular, dk, k, f.perm[k])
		}
		d[k] = dk
	}
	return nil
}

// SolveInto solves (A + S)·x = b into dst with the current factor, using
// the caller-owned workspace work (length n); it performs no allocation.
// dst and b may alias; work must not alias either. Concurrent SolveInto
// calls on the same factor are safe as long as each goroutine owns its
// dst/work buffers.
func (f *LDL) SolveInto(dst, b, work []float64) error {
	n := f.n
	if len(b) != n || len(dst) != n || len(work) != n {
		return fmt.Errorf("sparse: SolveInto buffer lengths (%d,%d,%d), want %d", len(dst), len(b), len(work), n)
	}
	y, lp, li, lx := work, f.lp, f.li, f.lx
	for k, j := range f.perm {
		y[k] = b[j]
	}
	for i := 0; i < n; i++ {
		if yi := y[i]; yi != 0 {
			rows, vals := li[lp[i]:lp[i+1]], lx[lp[i]:lp[i+1]]
			vals = vals[:len(rows)]
			for q, j := range rows {
				y[j] -= vals[q] * yi
			}
		}
	}
	for k, dk := range f.d {
		y[k] /= dk
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		rows, vals := li[lp[i]:lp[i+1]], lx[lp[i]:lp[i+1]]
		vals = vals[:len(rows)]
		for q, j := range rows {
			s -= vals[q] * y[j]
		}
		y[i] = s
	}
	for k, j := range f.perm {
		dst[j] = y[k]
	}
	return nil
}

// NNZ returns the stored entries of L (its strictly lower part), a
// measure of fill-in.
func (f *LDL) NNZ() int { return len(f.lx) }
