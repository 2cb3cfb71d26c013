package sparse

import (
	"fmt"
	"math"
)

// refactorPivotTol is the relative pivot-magnitude floor of Refactorize:
// a frozen pivot smaller than this fraction of its column's largest entry
// signals element growth the original pivot order can no longer contain,
// so the refactorization bails to ErrSingular and the caller re-pivots in
// place with Repivot. A failed attempt only costs that fallback, so the
// threshold errs on the safe side.
const refactorPivotTol = 1e-6

// Refactorize recomputes the numeric values of the factorization for a new
// matrix a with the SAME sparsity pattern as the matrix last factored by
// Factorize or Repivot, reusing the symbolic analysis: the fill pattern of
// L and U, the column pre-order Q and the row permutation P are all kept,
// so no reach/DFS, no pivot search and no index allocation happens — only
// the numeric triangular solves. This is the classic KLU-style
// refactorization that makes Newton iterations after the first cheap.
//
// Because pivoting is frozen, a value change that would have demanded a
// different pivot order can surface as a zero pivot; ErrSingular is
// returned and the caller should fall back to Repivot, which keeps the
// column pre-order and the storage and chooses fresh row pivots.
func (f *LU) Refactorize(a *CSC) error {
	n := f.n
	if a.rows != n || a.cols != n {
		return fmt.Errorf("sparse: Refactorize matrix is %dx%d, factorization is %dx%d", a.rows, a.cols, n, n)
	}
	if f.failed {
		return fmt.Errorf("%w: no factorization to refactorize after a failed Repivot", ErrSingular)
	}
	x := f.rw
	for k := 0; k < n; k++ {
		col := f.q[k]
		// Scatter A(:, col) into pivot-order positions. Every structural
		// entry of a lies inside the factorized pattern by precondition.
		for p := a.colPtr[col]; p < a.colPtr[col+1]; p++ {
			x[f.pinv[a.rowIdx[p]]] = a.val[p]
		}
		// Eliminate along the stored U pattern. The off-diagonal entries of
		// U column k were appended in topological order during Factorize,
		// so replaying them in storage order respects dependencies.
		for p := f.up[k]; p < f.up[k+1]-1; p++ {
			j := f.ui[p]
			xj := x[j]
			f.ux[p] = xj
			x[j] = 0
			if xj == 0 {
				// Exactly-zero entries propagate nothing. Patterns that
				// carry structural zeros (e.g. the contingency solver's
				// pinned PV rows and patched-out branch couplings) skip
				// their whole update here.
				continue
			}
			for p2 := f.lp[j] + 1; p2 < f.lp[j+1]; p2++ {
				x[f.li[p2]] -= f.lx[p2] * xj
			}
		}
		pivot := x[k]
		x[k] = 0
		amax := math.Abs(pivot)
		for p := f.lp[k] + 1; p < f.lp[k+1]; p++ {
			if av := math.Abs(x[f.li[p]]); av > amax {
				amax = av
			}
		}
		if pivot == 0 || math.Abs(pivot) < refactorPivotTol*amax {
			// The frozen pivot went (relatively) tiny: dividing through
			// would blow up the factors. Clear the remaining pattern
			// before bailing so the workspace stays zeroed for a future
			// attempt.
			for p := f.lp[k] + 1; p < f.lp[k+1]; p++ {
				x[f.li[p]] = 0
			}
			return fmt.Errorf("%w: unstable pivot in column %d during refactorization", ErrSingular, col)
		}
		f.ux[f.up[k+1]-1] = pivot
		for p := f.lp[k] + 1; p < f.lp[k+1]; p++ {
			i := f.li[p]
			f.lx[p] = x[i] / pivot
			x[i] = 0
		}
	}
	return nil
}

// SolveInto solves A·x = b into dst using the caller-owned workspace work
// (length n); it performs no allocation. dst and b may alias; work must
// not alias either. Concurrent SolveInto calls on the same factorization
// are safe as long as each goroutine owns its dst/work buffers.
func (f *LU) SolveInto(dst, b, work []float64) error {
	n := f.n
	if len(b) != n || len(dst) != n || len(work) != n {
		return fmt.Errorf("sparse: SolveInto buffer lengths (%d,%d,%d), want %d", len(dst), len(b), len(work), n)
	}
	y := work
	for i := 0; i < n; i++ {
		y[f.pinv[i]] = b[i]
	}
	// Forward substitution L·z = P·b (diagonal of L stored first, == 1).
	for j := 0; j < n; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
			y[f.li[p]] -= f.lx[p] * yj
		}
	}
	// Back substitution U·w = z (diagonal of U stored last in each column).
	for j := n - 1; j >= 0; j-- {
		d := f.ux[f.up[j+1]-1]
		if d == 0 {
			return ErrSingular
		}
		y[j] /= d
		yj := y[j]
		if yj == 0 {
			continue
		}
		for p := f.up[j]; p < f.up[j+1]-1; p++ {
			y[f.ui[p]] -= f.ux[p] * yj
		}
	}
	// Undo the column pre-order.
	for k := 0; k < n; k++ {
		dst[f.q[k]] = y[k]
	}
	return nil
}
