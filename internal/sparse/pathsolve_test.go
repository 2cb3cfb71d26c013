package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// denseFactors expands f's factors to dense row-major matrices in pivot
// order: L unit lower triangular, U upper triangular.
func denseFactors(f *LU) (l, u [][]float64) {
	n := f.n
	l, u = make([][]float64, n), make([][]float64, n)
	for i := range l {
		l[i], u[i] = make([]float64, n), make([]float64, n)
	}
	for j := 0; j < n; j++ {
		for p := f.lp[j]; p < f.lp[j+1]; p++ {
			l[f.li[p]][j] = f.lx[p]
		}
		for p := f.up[j]; p < f.up[j+1]; p++ {
			u[f.ui[p]][j] = f.ux[p]
		}
	}
	return l, u
}

// denseForward returns L⁻¹·e_k by row-oriented substitution.
func denseForward(l [][]float64, k int) []float64 {
	z := make([]float64, len(l))
	for i := range z {
		var s float64
		if i == k {
			s = 1
		}
		for j := 0; j < i; j++ {
			s -= l[i][j] * z[j]
		}
		z[i] = s
	}
	return z
}

// denseBackRow returns row k of U⁻¹, the solution of Uᵀ·y = e_k, by
// row-oriented substitution.
func denseBackRow(u [][]float64, k int) []float64 {
	y := make([]float64, len(u))
	for j := range y {
		var s float64
		if j == k {
			s = 1
		}
		for i := 0; i < j; i++ {
			s -= u[i][j] * y[i]
		}
		y[j] = s / u[j][j]
	}
	return y
}

// checkPath fails unless the path solve's result x with the positions
// appended to pat after prefix is near want, is zero off the pattern, and
// the pattern is exactly x's nonzero set in increasing order.
func checkPath(t *testing.T, what string, x, want []float64, pat, prefix []int) {
	t.Helper()
	if !slices.Equal(pat[:len(prefix)], prefix) {
		t.Fatalf("%s: the caller's pattern prefix changed: %v, want %v", what, pat[:len(prefix)], prefix)
	}
	var nz []int
	var norm float64
	for i, v := range x {
		if v != 0 {
			nz = append(nz, i)
		}
		norm = math.Max(norm, math.Abs(want[i]))
	}
	if got := pat[len(prefix):]; !slices.Equal(got, nz) {
		t.Fatalf("%s: pattern %v, nonzero set %v", what, got, nz)
	}
	for i := range x {
		if d := math.Abs(x[i] - want[i]); d > 1e-12*(1+norm) {
			t.Fatalf("%s: [%d] = %v, dense %v", what, i, x[i], want[i])
		}
	}
}

// checkPathSolves runs both path solves for every row and column of f
// against the dense factors, and checks that the forward path equals
// ForwardInto bit for bit and that a back row reads a solve's entry.
func checkPathSolves(t *testing.T, what string, f *LU, rng *rand.Rand) {
	t.Helper()
	n := f.n
	l, u := denseFactors(f)
	prefix := []int{-7, -8}
	x, z, e := make([]float64, n), make([]float64, n), make([]float64, n)
	b, sol, zb := sparseRHS(rng, n), make([]float64, n), make([]float64, n)
	if err := f.SolveInto(sol, b, make([]float64, n)); err != nil {
		t.Fatal(err)
	}
	if err := f.ForwardInto(zb, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pat, err := f.ForwardPathInto(x, i, slices.Clone(prefix))
		if err != nil {
			t.Fatalf("%s: ForwardPathInto(%d): %v", what, i, err)
		}
		checkPath(t, fmt.Sprintf("%s L⁻¹P·e_%d", what, i), x, denseForward(l, f.pinv[i]), pat, prefix)
		e[i] = 1
		if err := f.ForwardInto(z, e); err != nil {
			t.Fatal(err)
		}
		e[i] = 0
		sameBits(t, fmt.Sprintf("%s forward path %d", what, i), x, z)
		clear(x)

		pat, err = f.BackRowInto(x, i, slices.Clone(prefix))
		if err != nil {
			t.Fatalf("%s: BackRowInto(%d): %v", what, i, err)
		}
		k := slices.Index(f.q, i)
		checkPath(t, fmt.Sprintf("%s row %d of U⁻¹", what, k), x, denseBackRow(u, k), pat, prefix)
		var s, norm float64
		for _, j := range pat[len(prefix):] {
			s += x[j] * zb[j]
			norm += math.Abs(x[j] * zb[j])
		}
		if d := math.Abs(s - sol[i]); d > 1e-12*(1+norm) {
			t.Fatalf("%s: back row %d reads %v, solve %v (norm %v)", what, i, s, sol[i], norm)
		}
		clear(x)
	}
}

// TestPathSolvesMatchDense pins ForwardPathInto and BackRowInto to dense
// L⁻¹P columns and U⁻¹ rows on random unsymmetric patterns with exact
// zeros: after Factorize, after a Refactorize of new values, and after a
// Repivot that changes the pivots; each time U's rows are copied anew.
func TestPathSolvesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	repivoted := 0
	for _, n := range []int{1, 5, 30, 120} {
		for _, density := range []float64{0.02, 0.1, 0.3} {
			what := fmt.Sprintf("n=%d density=%v", n, density)
			a := randomSolvable(rng, n, density)
			zeroSomeValues(rng, a)
			f, err := Factorize(a, Options{})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkPathSolves(t, what, f, rng)
			if !f.paths.rows {
				t.Fatalf("%s: no U rows after BackRowInto", what)
			}

			for i := range a.val {
				a.val[i] *= 1 + 0.1*rng.NormFloat64()
			}
			if err := f.Refactorize(a); err != nil {
				t.Fatalf("%s: Refactorize: %v", what, err)
			}
			if f.paths.rows {
				t.Fatalf("%s: Refactorize kept the old U rows", what)
			}
			checkPathSolves(t, what+" refactorized", f, rng)

			// A row-permuted well-conditioned matrix of a new pattern:
			// threshold pivoting takes its strong entries off the diagonal.
			pinv := slices.Clone(f.pinv)
			if err := f.Repivot(rowPermuted(rng, randomSolvable(rng, n, density))); err != nil {
				t.Fatalf("%s: Repivot: %v", what, err)
			}
			if f.paths.rows {
				t.Fatalf("%s: Repivot kept the old U rows", what)
			}
			if !slices.Equal(pinv, f.pinv) {
				repivoted++
			}
			checkPathSolves(t, what+" repivoted", f, rng)
		}
	}
	if repivoted < 8 {
		t.Fatalf("only %d Repivots changed the pivots; the rebuild is barely tested", repivoted)
	}
}

// rowPermuted returns a with its rows randomly permuted.
func rowPermuted(rng *rand.Rand, a *CSC) *CSC {
	perm := rng.Perm(a.rows)
	c := NewCOO(a.rows, a.cols)
	for j := 0; j < a.cols; j++ {
		for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
			c.Add(perm[a.rowIdx[p]], j, a.val[p])
		}
	}
	return c.ToCSC()
}

// TestPathSolvesNoAllocs pins both path solves at zero allocations once
// the workspace and U rows exist and pat has room.
func TestPathSolvesNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSolvable(rng, 200, 0.02)
	f, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, pat := make([]float64, 200), make([]int, 0, 200)
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if pat, err = f.ForwardPathInto(x, i%200, pat[:0]); err != nil {
			t.Fatal(err)
		}
		for _, j := range pat {
			x[j] = 0
		}
		if pat, err = f.BackRowInto(x, i%200, pat[:0]); err != nil {
			t.Fatal(err)
		}
		for _, j := range pat {
			x[j] = 0
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm path solves allocate %.1f times, want 0", allocs)
	}
}

// TestBackRowZeroPivot hits a zero U pivot in the middle of a back row's
// path: the call must return ErrSingular with the caller's buffer zero
// throughout (not just at the positions it had recorded), pat as it came
// and the frontier empty, so the next path solve on the repaired factor
// matches the one before.
func TestBackRowZeroPivot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 80
	a := randomSolvable(rng, n, 0.08)
	f, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, n)
	// The column with the longest back row, and the middle of its path.
	var col int
	var want []float64
	var path []int
	for c := 0; c < n; c++ {
		pat, err := f.BackRowInto(y, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pat) > len(path) {
			col, path, want = c, pat, slices.Clone(y)
		}
		clear(y)
	}
	if len(path) < 6 {
		t.Fatalf("longest back row has %d entries; the fixture is too sparse", len(path))
	}
	j := path[len(path)/2]
	diag := f.up[j+1] - 1
	pivot := f.ux[diag]
	f.ux[diag] = 0
	prefix := []int{3, 1}
	pat, err := f.BackRowInto(y, col, slices.Clone(prefix))
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("BackRowInto across a zero pivot: %v, want ErrSingular", err)
	}
	if !slices.Equal(pat, prefix) {
		t.Fatalf("pattern after the error %v, want %v", pat, prefix)
	}
	for i, v := range y {
		if v != 0 {
			t.Fatalf("y[%d] = %v after the error, want 0", i, v)
		}
	}
	if slices.ContainsFunc(f.paths.front, func(w uint64) bool { return w != 0 }) {
		t.Fatal("the frontier is not empty after the error")
	}
	f.ux[diag] = pivot
	pat, err = f.BackRowInto(y, col, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pat, path) {
		t.Fatalf("pattern after repair %v, want %v", pat, path)
	}
	sameBits(t, "back row after repair", y, want)
}
