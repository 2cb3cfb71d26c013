package sparse

import (
	"fmt"
	"math/bits"
)

// Path solves: triangular solves for a unit right-hand side that touch
// only the reach of its one nonzero, the sparse-vector half of
// compensation methods. Both factors are triangular in pivot order, so
// every edge of either factor's graph leads to a larger position, and
// visiting the reach in increasing position order is a topological order.
// A bitset of the frontier yields that order directly: an update that
// makes a zero position nonzero sets its bit, and the next position is the
// lowest set bit, found by scanning upward word by word (n/64 words per
// path at most), with no depth-first search and no sort. A position that
// is zero when its turn comes propagates nothing, as in the full solves,
// whether its bit was set or not.
//
// The path solves use the factorization's own workspace (pathState), so
// unlike SolveInto they are not safe for concurrent use on one LU.

// pathState is the path solves' workspace, allocated by the first path
// solve on an LU: the frontier bitset, which every path solve leaves zero,
// and U's rows for BackRowInto, copied out of the column-stored factor by
// the first BackRowInto after each Refactorize or Repivot (on a sweep's
// base factor, once per base state). Indices are int32 to keep the copy
// compact.
type pathState struct {
	front []uint64

	rows   bool      // the row copy below matches the factors
	qinv   []int32   // column -> the pivot step that eliminates it
	rowPtr []int32   // row j's off-diagonal U entries are [rowPtr[j], rowPtr[j+1])
	rowCol []int32   // their pivot steps, increasing within a row
	rowVal []float64 // their values
}

// ForwardPathInto writes z = L⁻¹·P·e_row, the forward half of a solve for
// the unit right-hand side e_row, indexed by pivot position like
// ForwardInto's and bit-identical to it. z must be zero on entry. It
// appends the positions it made nonzero to pat, in increasing order, and
// returns pat; z stays zero everywhere else.
func (f *LU) ForwardPathInto(z []float64, row int, pat []int) ([]int, error) {
	if len(z) != f.n || row < 0 || row >= f.n {
		return pat, fmt.Errorf("sparse: ForwardPathInto row %d, buffer length %d, want row < %d", row, len(z), f.n)
	}
	if f.failed {
		return pat, fmt.Errorf("%w: no factorization after a failed Repivot", ErrSingular)
	}
	front := f.pathWork().front
	lp, li, lx := f.lp, f.li, f.lx
	j0 := f.pinv[row]
	z[j0] = 1
	front[j0>>6] = 1 << (j0 & 63)
	for w := j0 >> 6; w < len(front); {
		word := front[w]
		if word == 0 {
			w++
			continue
		}
		b := bits.TrailingZeros64(word)
		front[w] = word &^ (1 << b)
		j := w<<6 + b
		zj := z[j]
		if zj == 0 {
			continue
		}
		pat = append(pat, j)
		rows, vals := li[lp[j]+1:lp[j+1]], lx[lp[j]+1:lp[j+1]]
		vals = vals[:len(rows)]
		for p, i := range rows {
			zi := z[i]
			z[i] = zi - vals[p]*zj
			if zi == 0 {
				front[i>>6] |= 1 << (i & 63)
			}
		}
	}
	return pat, nil
}

// BackRowInto writes y = U⁻ᵀ·e_k, k the pivot step that eliminates column
// col: the row of U⁻¹ that yields a solve's x[col] = Σ_k y[k]·z[k] from
// its forward half z = L⁻¹·P·b. y must be zero on entry. It appends the
// positions it made nonzero to pat, in increasing order, and returns pat;
// y stays zero everywhere else. The first call after a factorization
// copies out U's rows.
//
// A zero U pivot on the path returns ErrSingular with y zero throughout
// and pat as it came.
func (f *LU) BackRowInto(y []float64, col int, pat []int) ([]int, error) {
	if len(y) != f.n || col < 0 || col >= f.n {
		return pat, fmt.Errorf("sparse: BackRowInto column %d, buffer length %d, want column < %d", col, len(y), f.n)
	}
	if f.failed {
		return pat, fmt.Errorf("%w: no factorization after a failed Repivot", ErrSingular)
	}
	s := f.upperRows()
	front, rowPtr, rowCol, rowVal := s.front, s.rowPtr, s.rowCol, s.rowVal
	up, ux := f.up, f.ux
	start := len(pat)
	k := int(s.qinv[col])
	y[k] = 1
	front[k>>6] = 1 << (k & 63)
	for w := k >> 6; w < len(front); {
		word := front[w]
		if word == 0 {
			w++
			continue
		}
		b := bits.TrailingZeros64(word)
		front[w] = word &^ (1 << b)
		j := w<<6 + b
		d := ux[up[j+1]-1]
		if d == 0 {
			y[j] = 0
			for _, i := range pat[start:] {
				y[i] = 0
			}
			for ; w < len(front); w++ {
				for word := front[w]; word != 0; word &= word - 1 {
					y[w<<6+bits.TrailingZeros64(word)] = 0
				}
				front[w] = 0
			}
			return pat[:start], ErrSingular
		}
		yj := y[j] / d
		if yj == 0 {
			y[j] = 0 // not the −0 a negative pivot would leave
			continue
		}
		y[j] = yj
		pat = append(pat, j)
		cols, vals := rowCol[rowPtr[j]:rowPtr[j+1]], rowVal[rowPtr[j]:rowPtr[j+1]]
		vals = vals[:len(cols)]
		for p, c := range cols {
			yc := y[c]
			y[c] = yc - vals[p]*yj
			if yc == 0 {
				front[c>>6] |= 1 << (c & 63)
			}
		}
	}
	return pat, nil
}

// pathWork returns f's path workspace, allocating its dimension-sized
// part on first use.
func (f *LU) pathWork() *pathState {
	s := &f.paths
	if s.front == nil {
		n := f.n
		s.front = make([]uint64, (n+63)/64)
		ints := arena[int32](make([]int32, 2*n+1))
		s.qinv, s.rowPtr = ints.take(n), ints.take(n+1)
		for k, c := range f.q {
			s.qinv[c] = int32(k)
		}
	}
	return s
}

// upperRows returns f's path workspace with U's rows copied out, copying
// them anew, in the old storage when that is large enough, when a
// factorization changed them.
func (f *LU) upperRows() *pathState {
	s := f.pathWork()
	if s.rows {
		return s
	}
	n := f.n
	off := len(f.ux) - n
	if cap(s.rowCol) < off {
		s.rowCol, s.rowVal = make([]int32, off), make([]float64, off)
	}
	s.rowCol, s.rowVal = s.rowCol[:off], s.rowVal[:off]
	ptr := s.rowPtr
	clear(ptr)
	for k := 0; k < n; k++ {
		for _, j := range f.ui[f.up[k] : f.up[k+1]-1] {
			ptr[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		ptr[j+1] += ptr[j]
	}
	// Fill with ptr[j] as row j's cursor, which leaves it at row j+1's
	// start; shift the pointers back after.
	for k := 0; k < n; k++ {
		for p := f.up[k]; p < f.up[k+1]-1; p++ {
			j := f.ui[p]
			s.rowCol[ptr[j]], s.rowVal[ptr[j]] = int32(k), f.ux[p]
			ptr[j]++
		}
	}
	copy(ptr[1:], ptr[:n])
	ptr[0] = 0
	s.rows = true
	return s
}
