package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports a numerically singular matrix during factorization.
var ErrSingular = errors.New("sparse: matrix is singular")

// Options configures the LU factorization.
type Options struct {
	// ColPerm is the fill-reducing column pre-ordering. If nil, a
	// minimum-degree ordering of the symmetrized pattern is computed.
	ColPerm []int
	// DiagPreference is the threshold-pivoting parameter in (0, 1]: the
	// original diagonal entry is accepted as pivot when its magnitude is at
	// least DiagPreference times the column maximum. 1.0 means strict
	// partial pivoting; smaller values keep the diagonal, and with it the
	// order ColPerm chose, more often. Zero selects the default 0.001, the
	// value KLU ships and UMFPACK's symmetric strategy uses: element growth
	// per step stays bounded by 10³, and a saddle-point system (the OPF
	// KKT matrix) keeps its fill-reducing order where 0.1 would reject
	// about half of its diagonal pivots and roughly double the factor.
	// A matrix whose diagonal always passes 0.1 factors identically.
	DiagPreference float64
}

// defaultDiagPreference is the threshold Options.DiagPreference == 0 selects.
const defaultDiagPreference = 0.001

// LU is a Gilbert-Peierls sparse LU factorization with partial pivoting:
// P·A·Q = L·U, where Q is the fill-reducing column pre-order and P is the
// row permutation chosen by threshold partial pivoting.
type LU struct {
	n    int
	lp   []int // L column pointers (diagonal entry stored first per column)
	li   []int
	lx   []float64
	up   []int // U column pointers (diagonal entry stored last per column)
	ui   []int
	ux   []float64
	pinv []int   // original row -> pivot position
	q    []int   // column pre-order: column q[k] eliminated at step k
	tol  float64 // threshold-pivoting parameter Repivot applies
	// failed marks a Repivot that returned an error part-way: the factors
	// are incomplete, so Refactorize refuses them until a Repivot succeeds.
	failed bool
	// Factor workspace: rw is the numeric scratch of Repivot and
	// Refactorize, kept zeroed between calls; xi (pattern + recursion
	// stacks, 2n), pstack (DFS positions) and marked (DFS visit stamps)
	// serve Repivot's reach.
	rw                 []float64
	xi, pstack, marked []int
}

// Factorize computes the sparse LU decomposition of the square matrix a.
func Factorize(a *CSC, opts Options) (*LU, error) {
	n := a.cols
	if a.rows != n {
		return nil, fmt.Errorf("sparse: Factorize needs square matrix, got %dx%d", a.rows, a.cols)
	}
	q := opts.ColPerm
	if q == nil {
		q = MinDegree(a)
	}
	if len(q) != n {
		return nil, fmt.Errorf("sparse: column permutation length %d, want %d", len(q), n)
	}
	tol := opts.DiagPreference
	if tol == 0 {
		tol = defaultDiagPreference
	}
	if tol < 0 || tol > 1 {
		return nil, fmt.Errorf("sparse: DiagPreference %v out of (0,1]", tol)
	}

	nzEst := 4*a.NNZ() + n
	f := &LU{
		n:      n,
		lp:     make([]int, n+1),
		li:     make([]int, 0, nzEst),
		lx:     make([]float64, 0, nzEst),
		up:     make([]int, n+1),
		ui:     make([]int, 0, nzEst),
		ux:     make([]float64, 0, nzEst),
		pinv:   make([]int, n),
		q:      q,
		tol:    tol,
		rw:     make([]float64, n),
		xi:     make([]int, 2*n),
		pstack: make([]int, n),
		marked: make([]int, n),
	}
	if err := f.Repivot(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Repivot factorizes a afresh into f's own storage: the same column
// pre-order and pivot threshold as the Factorize that built f, but a new
// symbolic analysis and new row pivots chosen from a's values. It is the
// fallback when Refactorize reports that the frozen pivots went stale, and
// allocates nothing once the factor slices have grown to a's fill. The
// result is identical to Factorize(a) with f's options.
//
// a must have f's dimension. On error f holds no usable factorization
// until a later Repivot succeeds (Refactorize returns ErrSingular
// meanwhile, so the usual Refactorize-else-Repivot fallback recovers); the
// workspace is left zeroed, so that Repivot needs no reset.
func (f *LU) Repivot(a *CSC) error {
	n := f.n
	if a.rows != n || a.cols != n {
		return fmt.Errorf("sparse: Repivot matrix is %dx%d, factorization is %dx%d", a.rows, a.cols, n, n)
	}
	f.li, f.lx, f.ui, f.ux = f.li[:0], f.lx[:0], f.ui[:0], f.ux[:0]
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	clear(f.marked) // stamps left by an earlier run would read as visited
	f.failed = true
	x, xi, pstack, marked := f.rw, f.xi, f.pstack, f.marked
	for k := 0; k < n; k++ {
		f.lp[k] = len(f.lx)
		f.up[k] = len(f.ux)

		col := f.q[k]
		top := f.reach(a, col, xi, pstack, marked, k+1)

		// Numeric sparse triangular solve x = L \ A(:, col) over the
		// reachable pattern (in topological order xi[top:n]).
		for p := a.colPtr[col]; p < a.colPtr[col+1]; p++ {
			x[a.rowIdx[p]] = a.val[p]
		}
		for pp := top; pp < n; pp++ {
			j := xi[pp]
			jn := f.pinv[j]
			if jn < 0 {
				continue
			}
			// First stored entry of L column jn is the unit diagonal.
			xj := x[j]
			for p := f.lp[jn] + 1; p < f.lp[jn+1]; p++ {
				x[f.li[p]] -= f.lx[p] * xj
			}
		}

		// Pivot search among not-yet-pivoted rows.
		ipiv := -1
		var amax float64
		for pp := top; pp < n; pp++ {
			i := xi[pp]
			if f.pinv[i] >= 0 {
				// Row already pivoted: belongs to U.
				continue
			}
			if av := math.Abs(x[i]); av > amax {
				amax, ipiv = av, i
			}
		}
		if ipiv == -1 || amax == 0 {
			// The reach covers every entry the column scattered or
			// updated, so clearing it leaves x zeroed.
			for pp := top; pp < n; pp++ {
				x[xi[pp]] = 0
			}
			return fmt.Errorf("%w: no pivot in column %d", ErrSingular, col)
		}
		// Prefer the original diagonal if acceptably large.
		if f.pinv[col] < 0 && math.Abs(x[col]) >= f.tol*amax {
			ipiv = col
		}
		pivot := x[ipiv]
		f.pinv[ipiv] = k

		// Assemble U column k (off-diagonal first, diagonal last).
		for pp := top; pp < n; pp++ {
			i := xi[pp]
			if jn := f.pinv[i]; jn >= 0 && jn < k {
				f.ui = append(f.ui, jn)
				f.ux = append(f.ux, x[i])
			}
		}
		f.ui = append(f.ui, k)
		f.ux = append(f.ux, pivot)

		// Assemble L column k (unit diagonal first).
		f.li = append(f.li, ipiv)
		f.lx = append(f.lx, 1)
		for pp := top; pp < n; pp++ {
			i := xi[pp]
			if f.pinv[i] < 0 {
				f.li = append(f.li, i)
				f.lx = append(f.lx, x[i]/pivot)
			}
			x[i] = 0 // clear workspace
		}
	}
	f.lp[n] = len(f.lx)
	f.up[n] = len(f.ux)
	// Remap L's row indices into pivot order.
	for p := range f.li {
		f.li[p] = f.pinv[f.li[p]]
	}
	f.failed = false
	return nil
}

// reach computes the nonzero pattern of L \ A(:, col) by depth-first search
// over the partially built L, writing the pattern in topological order to
// xi[top:n] and returning top. marked entries are stamped with the value
// stamp to avoid reinitialization each column.
func (f *LU) reach(a *CSC, col int, xi, pstack, marked []int, stamp int) int {
	n := f.n
	top := n
	for p := a.colPtr[col]; p < a.colPtr[col+1]; p++ {
		i := a.rowIdx[p]
		if marked[i] == stamp {
			continue
		}
		top = f.dfs(i, top, xi, pstack, marked, stamp)
	}
	return top
}

// dfs performs an iterative depth-first search from row node i through the
// columns of L (via pinv), pushing finished nodes onto xi in reverse
// topological order.
func (f *LU) dfs(i, top int, xi, pstack, marked []int, stamp int) int {
	head := 0
	xi[0] = i
	for head >= 0 {
		j := xi[head]
		jn := f.pinv[j]
		if marked[j] != stamp {
			marked[j] = stamp
			if jn < 0 {
				pstack[head] = 0
			} else {
				pstack[head] = f.lp[jn] + 1 // skip unit diagonal
			}
		}
		done := true
		if jn >= 0 {
			for p := pstack[head]; p < f.lp[jn+1]; p++ {
				r := f.li[p]
				if marked[r] == stamp {
					continue
				}
				pstack[head] = p + 1
				head++
				xi[head] = r
				done = false
				break
			}
		}
		if done {
			head--
			top--
			xi[top] = j
		}
	}
	return top
}

// Solve returns x with A·x = b for the factorized A. b is not modified.
// Allocation-sensitive callers should use SolveInto with owned buffers.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("sparse: Solve rhs length %d, want %d", len(b), f.n)
	}
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b, make([]float64, f.n)); err != nil {
		return nil, err
	}
	return x, nil
}

// NNZ returns the total stored entries of the L and U factors, a measure of
// fill-in.
func (f *LU) NNZ() int { return len(f.lx) + len(f.ux) }

// SolveCSC factorizes a and solves A·x = b in one call.
func SolveCSC(a *CSC, b []float64, opts Options) ([]float64, error) {
	f, err := Factorize(a, opts)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
