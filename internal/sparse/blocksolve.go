package sparse

import "fmt"

// SolveBlockInto solves A·X = B for nrhs right-hand sides at once, reusing
// one traversal of the L and U factor patterns for the whole block instead
// of nrhs separate passes — the multi-RHS form of SolveInto that amortizes
// factor-index traffic across batched solves (PTDF theta columns, Woodbury
// update columns, warm-started contingency right-hand sides).
//
// dst and b hold the right-hand sides column-major: column r occupies
// [r*n, (r+1)*n). work must have the same length. dst and b may alias;
// work must not alias either. Like SolveInto, the call performs no
// allocation and concurrent calls on one factorization are safe when each
// goroutine owns its buffers.
func (f *LU) SolveBlockInto(dst, b, work []float64, nrhs int) error {
	n := f.n
	if nrhs < 0 {
		return fmt.Errorf("sparse: SolveBlockInto nrhs %d", nrhs)
	}
	if len(b) != n*nrhs || len(dst) != n*nrhs || len(work) != n*nrhs {
		return fmt.Errorf("sparse: SolveBlockInto buffer lengths (%d,%d,%d), want %d", len(dst), len(b), len(work), n*nrhs)
	}
	y := work
	lp, li, lx := f.lp, f.li, f.lx
	up, ui, ux := f.up, f.ui, f.ux
	for r := 0; r < nrhs; r++ {
		yr, br := y[r*n:(r+1)*n], b[r*n:(r+1)*n]
		for i, pi := range f.pinv {
			yr[pi] = br[i]
		}
	}
	// Forward substitution L·Z = P·B: each L column is loaded once and
	// applied to every right-hand side.
	for j := 0; j < n; j++ {
		rows, vals := li[lp[j]+1:lp[j+1]], lx[lp[j]+1:lp[j+1]]
		vals = vals[:len(rows)]
		for r := 0; r < nrhs; r++ {
			yr := y[r*n : (r+1)*n]
			yj := yr[j]
			if yj == 0 {
				continue
			}
			for p, i := range rows {
				yr[i] -= vals[p] * yj
			}
		}
	}
	// Back substitution U·W = Z.
	for j := n - 1; j >= 0; j-- {
		diag := up[j+1] - 1
		d := ux[diag]
		if d == 0 {
			return ErrSingular
		}
		rows, vals := ui[up[j]:diag], ux[up[j]:diag]
		vals = vals[:len(rows)]
		for r := 0; r < nrhs; r++ {
			yr := y[r*n : (r+1)*n]
			yr[j] /= d
			yj := yr[j]
			if yj == 0 {
				continue
			}
			for p, i := range rows {
				yr[i] -= vals[p] * yj
			}
		}
	}
	for r := 0; r < nrhs; r++ {
		yr, dr := y[r*n:(r+1)*n], dst[r*n:(r+1)*n]
		for k, qk := range f.q {
			dr[qk] = yr[k]
		}
	}
	return nil
}
