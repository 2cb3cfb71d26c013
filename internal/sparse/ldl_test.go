package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomQuasiDefinite returns a random symmetric quasi-definite matrix
// [H Bᵀ; B −C] with both triangles stored: H (nh×nh) and C (nc×nc) are
// diagonally dominant, so positive definite, and each off-diagonal pair
// is present with the given density.
func randomQuasiDefinite(rng *rand.Rand, nh, nc int, density float64) *CSC {
	n := nh + nc
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		d := float64(n) + rng.Float64()
		if i >= nh {
			d = -d
		}
		c.Add(i, i, d)
		for j := 0; j < i; j++ {
			if rng.Float64() < density {
				v := rng.NormFloat64()
				c.Add(i, j, v)
				c.Add(j, i, v)
			}
		}
	}
	return c.ToCSC()
}

// denseSolve solves a·x = b by Gaussian elimination with partial
// pivoting, the reference the static factor is checked against.
func denseSolve(a [][]float64, b []float64) []float64 {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(m[i][k]) > math.Abs(m[p][k]) {
				p = i
			}
		}
		m[k], m[p] = m[p], m[k]
		for i := k + 1; i < n; i++ {
			f := m[i][k] / m[k][k]
			for j := k; j <= n; j++ {
				m[i][j] -= f * m[k][j]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x
}

func maxAbsDiff(x, y []float64) float64 {
	var m float64
	for i := range x {
		m = math.Max(m, math.Abs(x[i]-y[i]))
	}
	return m
}

// ldlSolve factors a with f and solves a·x = b into fresh buffers.
func ldlSolve(t *testing.T, f *LDL, a *CSC, b []float64) []float64 {
	t.Helper()
	if err := f.Factor(a); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, len(b))
	if err := f.SolveInto(x, b, make([]float64, len(b))); err != nil {
		t.Fatal(err)
	}
	return x
}

// TestLDLSolvesQuasiDefinite checks the static factor against a dense
// solve on random quasi-definite matrices under the natural order,
// minimum degree and a random permutation, then again after a
// same-pattern value change reuses the symbolic analysis.
func TestLDLSolvesQuasiDefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range []struct {
		nh, nc  int
		density float64
	}{{1, 0, 0}, {3, 2, 0.5}, {20, 10, 0.1}, {80, 40, 0.03}} {
		a := randomQuasiDefinite(rng, c.nh, c.nc, c.density)
		n := c.nh + c.nc
		for _, perm := range [][]int{IdentityPerm(n), MinDegree(a), rng.Perm(n)} {
			f, err := NewLDL(a, perm, nil)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				if round == 1 {
					// A factor symmetric in (i, j) keeps the matrix symmetric.
					for j := 0; j < n; j++ {
						for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
							i := a.rowIdx[p]
							a.val[p] *= 1 + 0.1*math.Sin(float64(i*j+i+j))
						}
					}
				}
				b := make([]float64, n)
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				got := ldlSolve(t, f, a, b)
				if d := maxAbsDiff(got, denseSolve(a.Dense(), b)); d > 1e-12 {
					t.Fatalf("n=%d round %d: LDLᵀ solve differs from the dense solve by %v", n, round, d)
				}
			}
		}
	}
}

// TestLDLSaddleNeedsShift factors a KKT-style saddle point [H Bᵀ; B 0],
// its zero block stored explicitly, under an order that eliminates a
// constraint row first. Unshifted, the first pivot is zero; with +δ on
// the H columns and −δ on the constraint rows it factors, and one step of
// iterative refinement against the unshifted matrix recovers the exact
// solution.
func TestLDLSaddleNeedsShift(t *testing.T) {
	c := NewCOO(5, 5)
	for _, e := range [][3]float64{
		{0, 0, 2}, {1, 1, 3}, {2, 2, 4}, {3, 3, 0}, {4, 4, 0},
		{3, 0, 1}, {0, 3, 1}, {3, 1, 1}, {1, 3, 1}, {4, 1, 1}, {1, 4, 1}, {4, 2, 1}, {2, 4, 1},
	} {
		c.Add(int(e[0]), int(e[1]), e[2])
	}
	a := c.ToCSC()
	perm := []int{3, 4, 0, 1, 2}
	bare, err := NewLDL(a, perm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("unshifted saddle point factored: %v, want ErrSingular", err)
	}
	const delta = 1e-8
	f, err := NewLDL(a, perm, []float64{delta, delta, delta, -delta, -delta})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 3, 0.5, -0.25}
	b := a.MulVec(want)
	x := ldlSolve(t, f, a, b)
	r := a.MulVec(x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	if err := f.SolveInto(r, r, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		x[i] += r[i]
	}
	if d := maxAbsDiff(x, want); d > 1e-12 {
		t.Fatalf("refined shifted solve is off by %v: %v, want %v", d, x, want)
	}
}

// TestLDLSingularPivotRecovers: a pivot that cancels to exactly zero and
// a NaN entry both return ErrSingular, and the next Factor of good values
// on the same pattern needs no reset: it matches a fresh factor exactly.
func TestLDLSingularPivotRecovers(t *testing.T) {
	// [1 1 0; 1 1 1; 0 1 3]: the second pivot is 1 − 1·1 = 0.
	c := NewCOO(3, 3)
	for _, e := range [][3]float64{{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {2, 2, 3}} {
		c.Add(int(e[0]), int(e[1]), e[2])
	}
	small := c.ToCSC()
	f, err := NewLDL(small, IdentityPerm(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Factor(small); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero pivot: %v, want ErrSingular", err)
	}
	small.val[0] = 2 // A(0,0): the matrix becomes nonsingular
	b := []float64{1, 2, 3}
	if d := maxAbsDiff(ldlSolve(t, f, small, b), denseSolve(small.Dense(), b)); d > 1e-12 {
		t.Fatalf("after a zero pivot the next factor is off by %v", d)
	}

	rng := rand.New(rand.NewSource(4))
	a := randomQuasiDefinite(rng, 20, 10, 0.2)
	perm := MinDegree(a)
	g, err := NewLDL(a, perm, nil)
	if err != nil {
		t.Fatal(err)
	}
	col := perm[15] // a pivot in the middle of the elimination
	diag := -1
	for p := a.colPtr[col]; p < a.colPtr[col+1]; p++ {
		if a.rowIdx[p] == col {
			diag = p
		}
	}
	saved := a.val[diag]
	a.val[diag] = math.NaN()
	if err := g.Factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("NaN entry: %v, want ErrSingular", err)
	}
	a.val[diag] = saved
	rhs := make([]float64, 30)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	fresh, err := NewLDL(a, perm, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, want := ldlSolve(t, g, a, rhs), ldlSolve(t, fresh, a, rhs)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("x[%d] = %v after a failed factor, %v from a fresh one", i, got[i], want[i])
		}
	}
}

// TestLDLFactorSolveNoAllocs pins the numeric phase and the solve at
// exactly zero allocations.
func TestLDLFactorSolveNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomQuasiDefinite(rng, 60, 30, 0.05)
	f, err := NewLDL(a, MinDegree(a), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 90)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	dst, work := make([]float64, 90), make([]float64, 90)
	allocs := testing.AllocsPerRun(20, func() {
		if err := f.Factor(a); err != nil {
			t.Fatal(err)
		}
		if err := f.SolveInto(dst, b, work); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Factor + SolveInto allocate %v per run, want 0", allocs)
	}
}

// TestLDLSolveIntoAliases: with dst and b the same slice, SolveInto
// solves in place and matches the unaliased solve exactly; bad buffer
// lengths and orders that are not permutations are rejected.
func TestLDLSolveIntoAliases(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomQuasiDefinite(rng, 30, 15, 0.1)
	f, err := NewLDL(a, MinDegree(a), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 45)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := ldlSolve(t, f, a, b)
	x := append([]float64(nil), b...)
	if err := f.SolveInto(x, x, make([]float64, 45)); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("aliased SolveInto[%d] = %v, unaliased %v", i, x[i], want[i])
		}
	}
	if err := f.SolveInto(x, b, make([]float64, 44)); err == nil {
		t.Fatal("short workspace accepted")
	}
	bad := IdentityPerm(45)
	bad[1] = 0
	if _, err := NewLDL(a, bad, nil); err == nil {
		t.Fatal("an order with a repeated column accepted")
	}
}
