package sparse

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestCompilePatternRoundTrip(t *testing.T) {
	// A 3x3 pattern supplied in scrambled order; slots must land every
	// value at its coordinate.
	ri := []int{2, 0, 1, 2, 0}
	ci := []int{0, 0, 1, 2, 2}
	m, slot := CompilePattern(3, 3, ri, ci)
	if m.NNZ() != 5 {
		t.Fatalf("nnz = %d want 5", m.NNZ())
	}
	val := m.Values()
	for k := range ri {
		val[slot[k]] = float64(10 + k)
	}
	for k := range ri {
		if got := m.At(ri[k], ci[k]); got != float64(10+k) {
			t.Fatalf("At(%d,%d) = %v want %v", ri[k], ci[k], got, float64(10+k))
		}
	}
	// Refill with new values through the same slots.
	for k := range ri {
		val[slot[k]] = float64(-k)
	}
	if got := m.At(2, 2); got != -3 {
		t.Fatalf("refilled At(2,2) = %v want -3", got)
	}
}

func TestCompilePatternDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate coordinate")
		}
	}()
	CompilePattern(2, 2, []int{0, 0}, []int{1, 1})
}

func TestRefactorizeMatchesFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 4, 30, 120} {
		a := randomSolvable(rng, n, 0.08)
		lu, err := Factorize(a, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Perturb the values (same pattern), refactorize, and verify the
		// solve against a fresh factorization.
		for i := range a.val {
			a.val[i] *= 1 + 0.3*rng.Float64()
		}
		if err := lu.Refactorize(a); err != nil {
			t.Fatalf("n=%d refactorize: %v", n, err)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := lu.Solve(b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("n=%d: x[%d] = %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestRefactorizeRepeated(t *testing.T) {
	// Newton-style usage: one symbolic factorization, many numeric
	// refactorizations; each must stand on its own.
	rng := rand.New(rand.NewSource(7))
	n := 60
	a := randomSolvable(rng, n, 0.1)
	lu, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		for i := range a.val {
			a.val[i] += 0.05 * rng.NormFloat64() * a.val[i]
		}
		if err := lu.Refactorize(a); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := lu.Solve(b)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-7 {
				t.Fatalf("round %d: x[%d] = %v want %v", round, i, got[i], want[i])
			}
		}
	}
}

func TestSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 50
	a := randomSolvable(rng, n, 0.1)
	lu, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, err := lu.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, n)
	work := make([]float64, n)
	if err := lu.SolveInto(dst, b, work); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("SolveInto[%d] = %v, Solve = %v", i, dst[i], want[i])
		}
	}
	// Aliased dst/b solves in place.
	alias := append([]float64(nil), b...)
	if err := lu.SolveInto(alias, alias, work); err != nil {
		t.Fatal(err)
	}
	for i := range alias {
		if alias[i] != want[i] {
			t.Fatalf("aliased SolveInto[%d] = %v, Solve = %v", i, alias[i], want[i])
		}
	}
	// Bad buffer lengths are rejected.
	if err := lu.SolveInto(dst, b, make([]float64, n-1)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestSolveIntoNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 80
	a := randomSolvable(rng, n, 0.08)
	lu, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	dst := make([]float64, n)
	work := make([]float64, n)
	allocs := testing.AllocsPerRun(20, func() {
		if err := lu.SolveInto(dst, b, work); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SolveInto allocates %v per run, want 0", allocs)
	}
}

// sameFactors fails unless got and want hold bit-identical L, U and row
// permutations.
func sameFactors(t *testing.T, got, want *LU) {
	t.Helper()
	if !slices.Equal(got.pinv, want.pinv) {
		t.Fatal("row permutations differ")
	}
	if !slices.Equal(got.lp, want.lp) || !slices.Equal(got.li, want.li) || !slices.Equal(got.lx, want.lx) {
		t.Fatal("L factors differ")
	}
	if !slices.Equal(got.up, want.up) || !slices.Equal(got.ui, want.ui) || !slices.Equal(got.ux, want.ux) {
		t.Fatal("U factors differ")
	}
}

// TestRepivotMatchesFactorize drives the fallback Refactorize callers take:
// the diagonal the pivots were frozen on shrinks by 1e-9, Refactorize
// refuses it, and Repivot into the same storage must produce exactly what
// a fresh Factorize of the new values does — and, once the storage has
// grown to that fill, without allocating. The sparse matrix has rows only
// one column reaches, which a visit stamp left from the previous
// factorization would hide.
func TestRepivotMatchesFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, density := range []float64{0.03, 0.3} {
		a := randomSolvable(rng, 40, density)
		lu, err := Factorize(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < a.cols; j++ {
			for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
				if a.rowIdx[p] == j {
					a.val[p] *= 1e-9
				}
			}
		}
		if err := lu.Refactorize(a); !errors.Is(err, ErrSingular) {
			t.Fatalf("density %v: Refactorize on shrunken pivots: %v, want ErrSingular", density, err)
		}
		if err := lu.Repivot(a); err != nil {
			t.Fatal(err)
		}
		want, err := Factorize(a, Options{ColPerm: lu.q})
		if err != nil {
			t.Fatal(err)
		}
		sameFactors(t, lu, want)
		if err := lu.Refactorize(a); err != nil {
			t.Fatalf("density %v: Refactorize after Repivot: %v", density, err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := lu.Repivot(a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("density %v: warm Repivot allocates %v per run, want 0", density, allocs)
		}
	}
}

// TestRepivotAfterSingular checks that a Repivot failing part-way leaves
// nothing behind: the failing matrix's last column is the sum of two
// earlier ones, so elimination ends with nonzeros in the workspace and no
// pivot. Until a Repivot succeeds Refactorize must refuse the partial
// factors, and the next Repivot must equal a fresh Factorize.
func TestRepivotAfterSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	good := randomSolvable(rng, 5, 0.5)
	lu, err := Factorize(good, Options{ColPerm: IdentityPerm(5)})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCOO(5, 5)
	for _, e := range [][3]float64{{0, 0, 2}, {2, 0, 1}, {1, 1, 2}, {3, 1, 1}, {2, 2, 2}, {3, 3, 2},
		{0, 4, 2}, {1, 4, 2}, {2, 4, 1}, {3, 4, 1}} {
		c.Add(int(e[0]), int(e[1]), e[2])
	}
	if err := lu.Repivot(c.ToCSC()); !errors.Is(err, ErrSingular) {
		t.Fatalf("Repivot on a singular matrix: %v, want ErrSingular", err)
	}
	if err := lu.Refactorize(good); !errors.Is(err, ErrSingular) {
		t.Fatalf("Refactorize after a failed Repivot: %v, want ErrSingular", err)
	}
	if err := lu.Repivot(good); err != nil {
		t.Fatal(err)
	}
	want, err := Factorize(good, Options{ColPerm: IdentityPerm(5)})
	if err != nil {
		t.Fatal(err)
	}
	sameFactors(t, lu, want)
}

// TestCloneRefactorizesApart checks that a Clone shares nothing with its
// source: refactorizing each on different values leaves both solving their
// own matrix bit for bit as a factorization refactorized alone does, and
// Pos finds every stored coordinate.
func TestCloneRefactorizesApart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSolvable(rng, 60, 0.08)
	lu, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < a.cols; j++ {
		for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
			if got := a.Pos(a.rowIdx[p], j); got != p {
				t.Fatalf("Pos(%d,%d) = %d, want %d", a.rowIdx[p], j, got, p)
			}
		}
	}
	if a.Pos(-1, 0) != -1 || a.Pos(0, a.cols) != -1 {
		t.Fatal("Pos accepted an out-of-range coordinate")
	}
	c := lu.Clone()
	b := &CSC{rows: a.rows, cols: a.cols, colPtr: a.colPtr, rowIdx: a.rowIdx, val: slices.Clone(a.val)}
	for i := range b.val {
		b.val[i] *= 1 + 0.2*rng.Float64()
	}
	ref, err := Factorize(a, Options{ColPerm: lu.q})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Refactorize(b); err != nil {
		t.Fatal(err)
	}
	if err := c.Refactorize(b); err != nil {
		t.Fatal(err)
	}
	if err := lu.Refactorize(a); err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, a.rows)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	solve := func(f *LU) []float64 {
		x := make([]float64, len(rhs))
		if err := f.SolveInto(x, rhs, make([]float64, len(rhs))); err != nil {
			t.Fatal(err)
		}
		return x
	}
	if !slices.Equal(solve(c), solve(ref)) {
		t.Fatal("the clone does not solve its own matrix as a lone factorization does")
	}
	want, err := Factorize(a, Options{ColPerm: lu.q})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(solve(lu), solve(want)) {
		t.Fatal("refactorizing the clone disturbed its source")
	}
}
