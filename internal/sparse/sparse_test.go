package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCOOToCSCBasic(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 0, 1)
	c.Add(2, 1, 5)
	c.Add(1, 2, -3)
	c.Add(2, 1, 2) // duplicate, must sum
	m := c.ToCSC()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d want 3 after duplicate merge", m.NNZ())
	}
	if m.At(2, 1) != 7 {
		t.Fatalf("At(2,1) = %v want 7", m.At(2, 1))
	}
	if m.At(0, 1) != 0 {
		t.Fatalf("At(0,1) = %v want 0", m.At(0, 1))
	}
}

func TestCOOAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func TestCSCMulVec(t *testing.T) {
	c := NewCOO(2, 3)
	c.Add(0, 0, 1)
	c.Add(0, 2, 2)
	c.Add(1, 1, 3)
	m := c.ToCSC()
	y := m.MulVec([]float64{1, 2, 3})
	if y[0] != 7 || y[1] != 6 {
		t.Fatalf("MulVec = %v want [7 6]", y)
	}
	yt := m.MulVecT([]float64{1, 1})
	if yt[0] != 1 || yt[1] != 3 || yt[2] != 2 {
		t.Fatalf("MulVecT = %v want [1 3 2]", yt)
	}
}

func TestDenseExpansion(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(1, 0, 4)
	d := c.ToCSC().Dense()
	if d[1][0] != 4 || d[0][0] != 0 {
		t.Fatalf("Dense = %v", d)
	}
}

func randomSparse(rng *rand.Rand, rows, cols int, density float64) *CSC {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				c.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return c.ToCSC()
}

// randomSolvable returns a sparse diagonally-boosted random square matrix.
func randomSolvable(rng *rand.Rand, n int, density float64) *CSC {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(n)+rng.Float64())
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				c.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return c.ToCSC()
}

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 10, 50, 200} {
		a := randomSolvable(rng, n, 0.05)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := SolveCSC(a, b, Options{})
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

func TestLUSolveIndefinite(t *testing.T) {
	// KKT-style saddle-point system: [H Aᵀ; A 0] with H SPD.
	// Indefinite systems are the OPF workload, so pivoting must cope.
	c := NewCOO(5, 5)
	// H = diag(2, 3, 4) block
	c.Add(0, 0, 2)
	c.Add(1, 1, 3)
	c.Add(2, 2, 4)
	// A = [1 1 0; 0 1 1]
	c.Add(3, 0, 1)
	c.Add(3, 1, 1)
	c.Add(4, 1, 1)
	c.Add(4, 2, 1)
	c.Add(0, 3, 1)
	c.Add(1, 3, 1)
	c.Add(1, 4, 1)
	c.Add(2, 4, 1)
	a := c.ToCSC()
	want := []float64{1, -2, 3, 0.5, -0.25}
	b := a.MulVec(want)
	got, err := SolveCSC(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 1, 2)
	// Row 1 empty -> structurally singular.
	if _, err := SolveCSC(c.ToCSC(), []float64{1, 1}, Options{}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestLUPermutedIdentity(t *testing.T) {
	// A = permutation matrix; solving must invert the permutation exactly.
	perm := []int{3, 0, 2, 1}
	c := NewCOO(4, 4)
	for i, p := range perm {
		c.Add(i, p, 1)
	}
	a := c.ToCSC()
	b := []float64{10, 20, 30, 40}
	x, err := SolveCSC(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		if x[p] != b[i] {
			t.Fatalf("x[%d] = %v want %v", p, x[p], b[i])
		}
	}
}

func TestLUMatchesDenseOnTridiagonal(t *testing.T) {
	n := 40
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2.5)
		if i > 0 {
			c.Add(i, i-1, -1)
			c.Add(i-1, i, -1)
		}
	}
	a := c.ToCSC()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	x, err := SolveCSC(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := a.MulVec(x)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-10 {
			t.Fatalf("residual[%d] = %v", i, r[i]-b[i])
		}
	}
}

func TestRCMReducesFillOnGrid(t *testing.T) {
	// 2-D grid Laplacian: the default (minimum-degree) ordering should
	// beat identity ordering on fill-in.
	const g = 12
	n := g * g
	c := NewCOO(n, n)
	id := func(i, j int) int { return i*g + j }
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			c.Add(id(i, j), id(i, j), 4)
			if i > 0 {
				c.Add(id(i, j), id(i-1, j), -1)
			}
			if i < g-1 {
				c.Add(id(i, j), id(i+1, j), -1)
			}
			if j > 0 {
				c.Add(id(i, j), id(i, j-1), -1)
			}
			if j < g-1 {
				c.Add(id(i, j), id(i, j+1), -1)
			}
		}
	}
	a := c.ToCSC()
	fDefault, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fID, err := Factorize(a, Options{ColPerm: IdentityPerm(n)})
	if err != nil {
		t.Fatal(err)
	}
	// The natural (row-major) grid ordering is already banded, so allow
	// parity, but the default ordering must not be substantially worse.
	if fDefault.NNZ() > fID.NNZ()*11/10 {
		t.Fatalf("default-ordering fill %d vs identity %d", fDefault.NNZ(), fID.NNZ())
	}
}

// Property: solve(A, A·x) == x for random sparse diag-dominant systems.
func TestLUSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		a := randomSolvable(rng, n, 0.15)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got, err := SolveCSC(a, a.MulVec(x), Options{})
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSC round trip preserves At lookups versus a dense shadow.
func TestCSCConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		dense := make([][]float64, rows)
		for i := range dense {
			dense[i] = make([]float64, cols)
		}
		c := NewCOO(rows, cols)
		for k := 0; k < rows*cols/2; k++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			v := rng.NormFloat64()
			c.Add(i, j, v)
			dense[i][j] += v
		}
		m := c.ToCSC()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if math.Abs(m.At(i, j)-dense[i][j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
