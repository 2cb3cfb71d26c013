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
	f.paths.rows = false // BackRowInto copies the new U's rows
	x := f.rw
	q, pinv := f.q, f.pinv
	colPtr, rowIdx, aval := a.colPtr, a.rowIdx, a.val
	up, ui, ux := f.up, f.ui, f.ux
	lp, li, lx := f.lp, f.li, f.lx
	for k := 0; k < n; k++ {
		col := q[k]
		// Scatter A(:, col) into pivot-order positions. Every structural
		// entry of a lies inside the factorized pattern by precondition.
		arows, avals := rowIdx[colPtr[col]:colPtr[col+1]], aval[colPtr[col]:colPtr[col+1]]
		avals = avals[:len(arows)]
		for p, i := range arows {
			x[pinv[i]] = avals[p]
		}
		// Eliminate along the stored U pattern. The off-diagonal entries of
		// U column k were appended in topological order during Factorize,
		// so replaying them in storage order respects dependencies.
		diag := up[k+1] - 1
		urows, uvals := ui[up[k]:diag], ux[up[k]:diag]
		uvals = uvals[:len(urows)]
		f.eliminate(x, urows, uvals)
		pivot := x[k]
		x[k] = 0
		amax := math.Abs(pivot)
		rows, vals := li[lp[k]+1:lp[k+1]], lx[lp[k]+1:lp[k+1]]
		vals = vals[:len(rows)]
		for _, i := range rows {
			if av := math.Abs(x[i]); av > amax {
				amax = av
			}
		}
		if pivot == 0 || math.Abs(pivot) < refactorPivotTol*amax {
			// The frozen pivot went (relatively) tiny: dividing through
			// would blow up the factors. Clear the remaining pattern
			// before bailing so the workspace stays zeroed for a future
			// attempt.
			for _, i := range rows {
				x[i] = 0
			}
			return fmt.Errorf("%w: unstable pivot in column %d during refactorization", ErrSingular, col)
		}
		ux[diag] = pivot
		for p, i := range rows {
			vals[p] = x[i] / pivot
			x[i] = 0
		}
	}
	return nil
}

// SolveInto solves A·x = b into dst using the caller-owned workspace work
// (length n); it performs no allocation. dst and b may alias; work must
// not alias either. Concurrent SolveInto calls on the same factorization
// are safe as long as each goroutine owns its dst/work buffers. It is
// ForwardInto into work followed by BackInto from it.
func (f *LU) SolveInto(dst, b, work []float64) error {
	n := f.n
	if len(b) != n || len(dst) != n || len(work) != n {
		return fmt.Errorf("sparse: SolveInto buffer lengths (%d,%d,%d), want %d", len(dst), len(b), len(work), n)
	}
	f.forward(work, b)
	return f.back(dst, work)
}

// ForwardInto writes z = L⁻¹·P·b, the forward half of a solve, indexed by
// pivot position. z must not alias b. Concurrent calls are safe as for
// SolveInto.
func (f *LU) ForwardInto(z, b []float64) error {
	if len(b) != f.n || len(z) != f.n {
		return fmt.Errorf("sparse: ForwardInto buffer lengths (%d,%d), want %d", len(z), len(b), f.n)
	}
	f.forward(z, b)
	return nil
}

// BackInto writes dst = Q·U⁻¹·z, the back half of a solve, and leaves
// U⁻¹·z in z. dst must not alias z. Concurrent calls are safe as for
// SolveInto.
func (f *LU) BackInto(dst, z []float64) error {
	if len(z) != f.n || len(dst) != f.n {
		return fmt.Errorf("sparse: BackInto buffer lengths (%d,%d), want %d", len(dst), len(z), f.n)
	}
	return f.back(dst, z)
}

// forward is ForwardInto without the length checks.
func (f *LU) forward(y, b []float64) {
	n := f.n
	lp, li, lx := f.lp, f.li, f.lx
	for i, pi := range f.pinv {
		y[pi] = b[i]
	}
	// Forward substitution L·z = P·b (diagonal of L stored first, == 1).
	for j := 0; j < n; j++ {
		yj := y[j]
		if f.paired(j) {
			// L(:,j) is L(j+1,j) followed by L(:,j+1)'s rows.
			yj1 := y[j+1]
			if yj != 0 {
				yj1 -= lx[lp[j]+1] * yj
				y[j+1] = yj1
			}
			rows := li[lp[j+1]+1 : lp[j+2]]
			a, b := lx[lp[j]+2:lp[j+1]], lx[lp[j+1]+1:lp[j+2]]
			switch {
			case yj != 0 && yj1 != 0:
				sub2(y, rows, a, b, yj, yj1)
			case yj != 0:
				sub(y, rows, a, yj)
			case yj1 != 0:
				sub(y, rows, b, yj1)
			}
			j++
			continue
		}
		if yj == 0 {
			continue
		}
		sub(y, li[lp[j]+1:lp[j+1]], lx[lp[j]+1:lp[j+1]], yj)
	}
}

// back is BackInto without the length checks.
func (f *LU) back(dst, y []float64) error {
	up, ui, ux := f.up, f.ui, f.ux
	// Back substitution U·w = z (diagonal of U stored last in each column).
	// On ErrSingular y holds no usable values.
	for j := f.n - 1; j >= 0; j-- {
		diag := up[j+1] - 1
		d := ux[diag]
		if d == 0 {
			return ErrSingular
		}
		y[j] /= d
		yj := y[j]
		if j > 0 && f.paired(j-1) {
			// U(:,j) is U(:,k)'s rows followed by U(k,j), k = j-1.
			k := j - 1
			dk := ux[up[j]-1]
			if dk == 0 {
				return ErrSingular
			}
			yk := y[k]
			if yj != 0 {
				yk -= ux[diag-1] * yj
			}
			yk /= dk
			y[k] = yk
			rows := ui[up[k] : up[j]-1]
			a, b := ux[up[j]:diag-1], ux[up[k]:up[j]-1]
			switch {
			case yj != 0 && yk != 0:
				sub2(y, rows, a, b, yj, yk)
			case yj != 0:
				sub(y, rows, a, yj)
			case yk != 0:
				sub(y, rows, b, yk)
			}
			j--
			continue
		}
		if yj == 0 {
			continue
		}
		sub(y, ui[up[j]:diag], ux[up[j]:diag], yj)
	}
	// Undo the column pre-order.
	for k, qk := range f.q {
		dst[qk] = y[k]
	}
	return nil
}

// sub subtracts vals·s from y at rows: one column of a triangular solve or
// elimination, y[rows[p]] -= vals[p]·s.
func sub(y []float64, rows []int, vals []float64, s float64) {
	vals = vals[:len(rows)]
	for p, i := range rows {
		y[i] -= vals[p] * s
	}
}

// sub2 applies two columns over shared rows in one pass, a·s first and
// then b·t: the arithmetic of sub(y, rows, a, s) followed by
// sub(y, rows, b, t), in that order. The paired kernels call it when
// neither multiplier is zero and sub alone for a pair with one, so a zero
// multiplier skips its column as in the one-column kernels.
func sub2(y []float64, rows []int, a, b []float64, s, t float64) {
	a, b = a[:len(rows)], b[:len(rows)]
	for p, i := range rows {
		y[i] = y[i] - a[p]*s - b[p]*t
	}
}

// eliminate applies the sources urows of one Refactorize column to x,
// storing each source's value into uvals as it goes; two sources j, j+1
// of a marked pair that follow each other in urows take one pass. It is a
// function of its own because Refactorize measured faster (case300
// Jacobian, amd64) with this loop kept out of its body.
func (f *LU) eliminate(x []float64, urows []int, uvals []float64) {
	lp, li, lx := f.lp, f.li, f.lx
	uvals = uvals[:len(urows)]
	for p := 0; p < len(urows); p++ {
		j := urows[p]
		xj := x[j]
		uvals[p] = xj
		x[j] = 0
		if f.paired(j) && p+1 < len(urows) && urows[p+1] == j+1 {
			// Sources j and j+1 in a row: apply the pair in one pass.
			xj1 := x[j+1]
			if xj != 0 {
				xj1 -= lx[lp[j]+1] * xj
			}
			uvals[p+1] = xj1
			x[j+1] = 0
			rows := li[lp[j+1]+1 : lp[j+2]]
			a, b := lx[lp[j]+2:lp[j+1]], lx[lp[j+1]+1:lp[j+2]]
			switch {
			case xj != 0 && xj1 != 0:
				sub2(x, rows, a, b, xj, xj1)
			case xj != 0:
				sub(x, rows, a, xj)
			case xj1 != 0:
				sub(x, rows, b, xj1)
			}
			p++
			continue
		}
		if xj == 0 {
			// Exactly-zero entries propagate nothing. Patterns that
			// carry structural zeros (e.g. the contingency solver's
			// pinned PV rows and patched-out branch couplings) skip
			// their whole update here.
			continue
		}
		sub(x, li[lp[j]+1:lp[j+1]], lx[lp[j]+1:lp[j+1]], xj)
	}
}
