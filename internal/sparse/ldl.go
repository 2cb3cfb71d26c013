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
// Columns nest in chains: when L(:,t) = [t+1] ++ L(:,t+1), column t is a
// child of t+1 in the elimination tree with the same rows below. The
// bus-supernode order of the OPF KKT makes such chains of a bus's four
// columns (Va, Vm and the P and Q balance rows) and a dense trailing one.
// NewLDL marks every run of four nested columns as a quad, and Factor and
// the forward half of SolveInto apply a quad's four columns to the rows
// they share in one pass (Ng and Peyton's supernodal update), with each
// entry seeing the one-column arithmetic in its order, so the factor and
// the solution are the same bits as column by column. The diagonal and
// back halves of SolveInto stay per column: the back half's dot products
// would reassociate if fused.
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
	// quads marks the quads, one bit per column: bit i set means columns
	// i..i+3 nest (see markQuads).
	quads []int
	y     []float64 // numeric workspace, zero between calls
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
	// lp and the quad marks share one allocation.
	words := markWords(n)
	ints := arena[int](make([]int, n+1+words))
	f.lp, f.quads = ints.take(n+1), ints.take(words)
	for k := 0; k < n; k++ {
		f.lp[k+1] = f.lp[k] + cnt[k]
	}
	f.markQuads(parent)
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

// markQuads marks column i as the start of a quad when columns i..i+3
// nest: L(:,t) = [t+1] ++ L(:,t+1) for t = i, i+1, i+2. Column t nests in
// t+1 exactly when t+1 is its elimination-tree parent and holds one row
// fewer, since a column's rows below its parent are rows of the parent.
// Quads do not overlap; they are marked from the left, so a chain of
// nested columns is cut into quads from its first column.
func (f *LDL) markQuads(parent []int) {
	lp := f.lp
	nests := func(t int) bool { return parent[t] == t+1 && lp[t+1]-lp[t] == lp[t+2]-lp[t+1]+1 }
	for i := 0; i+3 < f.n; i++ {
		if nests(i) && nests(i+1) && nests(i+2) {
			setMark(f.quads, i)
			i += 3
		}
	}
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
	rs, rc, rp, quads := f.rs, f.rc, f.rp, f.quads
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
		for r := 0; r < len(cols); r++ {
			i, pk := cols[r], pos[r]
			if k > i+3 && hasMark(quads, i) {
				// Row k lies below the whole quad, so its pattern holds
				// i..i+3 in a row and their positions in row k follow.
				// The quad's 3×3 inner triangle goes first, in the
				// column-by-column order; then one pass applies all four
				// columns to each shared row j < k, subtracting in column
				// order; then the four multipliers, in column order.
				p1, p2, p3 := pos[r+1], pos[r+2], pos[r+3]
				c0, c1, c2, c3 := lx[lp[i]:pk], lx[lp[i+1]:p1], lx[lp[i+2]:p2], lx[lp[i+3]:p3]
				y0 := y[i]
				y1 := y[i+1] - c0[0]*y0
				y2 := y[i+2] - c0[1]*y0 - c1[0]*y1
				y3 := y[i+3] - c0[2]*y0 - c1[1]*y1 - c2[0]*y2
				y[i], y[i+1], y[i+2], y[i+3] = 0, 0, 0, 0
				rows := li[lp[i+3]:p3]
				c0, c1, c2, c3 = c0[3:3+len(rows)], c1[2:2+len(rows)], c2[1:1+len(rows)], c3[:len(rows)]
				for q, j := range rows {
					y[j] = y[j] - c0[q]*y0 - c1[q]*y1 - c2[q]*y2 - c3[q]*y3
				}
				l := y0 / d[i]
				dk -= l * y0
				lx[pk] = l
				l = y1 / d[i+1]
				dk -= l * y1
				lx[p1] = l
				l = y2 / d[i+2]
				dk -= l * y2
				lx[p2] = l
				l = y3 / d[i+3]
				dk -= l * y3
				lx[p3] = l
				r += 3
				continue
			}
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
	y, lp, li, lx, quads := work, f.lp, f.li, f.lx, f.quads
	for k, j := range f.perm {
		y[k] = b[j]
	}
	for i := 0; i < n; i++ {
		if hasMark(quads, i) {
			// A quad in the column-by-column order, a zero y_c skipping
			// its column: the inner triangle, then one pass over the
			// shared rows when all four y_c are nonzero, else a pass per
			// nonzero column.
			c0, c1, c2, c3 := lx[lp[i]:lp[i+1]], lx[lp[i+1]:lp[i+2]], lx[lp[i+2]:lp[i+3]], lx[lp[i+3]:lp[i+4]]
			y0 := y[i]
			if y0 != 0 {
				y[i+1] -= c0[0] * y0
				y[i+2] -= c0[1] * y0
				y[i+3] -= c0[2] * y0
			}
			y1 := y[i+1]
			if y1 != 0 {
				y[i+2] -= c1[0] * y1
				y[i+3] -= c1[1] * y1
			}
			y2 := y[i+2]
			if y2 != 0 {
				y[i+3] -= c2[0] * y2
			}
			y3 := y[i+3]
			rows := li[lp[i+3]:lp[i+4]]
			c0, c1, c2 = c0[3:], c1[2:], c2[1:]
			if y0 != 0 && y1 != 0 && y2 != 0 && y3 != 0 {
				c0, c1, c2, c3 = c0[:len(rows)], c1[:len(rows)], c2[:len(rows)], c3[:len(rows)]
				for q, j := range rows {
					y[j] = y[j] - c0[q]*y0 - c1[q]*y1 - c2[q]*y2 - c3[q]*y3
				}
			} else {
				for c, yc := range [4]float64{y0, y1, y2, y3} {
					if yc != 0 {
						vals := [4][]float64{c0, c1, c2, c3}[c][:len(rows)]
						for q, j := range rows {
							y[j] -= vals[q] * yc
						}
					}
				}
			}
			i += 3
			continue
		}
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
