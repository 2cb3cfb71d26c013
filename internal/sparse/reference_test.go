package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The LU kernels as they were written before their per-entry loops moved
// to subslices: index arithmetic on the factor arrays for every entry.
// They are the bitwise references of TestLUKernelsMatchReference, so
// every operation and its order here is the contract the production
// kernels keep.

// refactorizeRef is the reference body of LU.Refactorize.
func refactorizeRef(f *LU, a *CSC) error {
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
		for p := a.colPtr[col]; p < a.colPtr[col+1]; p++ {
			x[f.pinv[a.rowIdx[p]]] = a.val[p]
		}
		for p := f.up[k]; p < f.up[k+1]-1; p++ {
			j := f.ui[p]
			xj := x[j]
			f.ux[p] = xj
			x[j] = 0
			if xj == 0 {
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

// solveRef is the reference body of LU.SolveInto.
func solveRef(f *LU, dst, b, work []float64) error {
	n := f.n
	if len(b) != n || len(dst) != n || len(work) != n {
		return fmt.Errorf("sparse: SolveInto buffer lengths (%d,%d,%d), want %d", len(dst), len(b), len(work), n)
	}
	y := work
	for i := 0; i < n; i++ {
		y[f.pinv[i]] = b[i]
	}
	for j := 0; j < n; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
			y[f.li[p]] -= f.lx[p] * yj
		}
	}
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
	for k := 0; k < n; k++ {
		dst[f.q[k]] = y[k]
	}
	return nil
}

// forwardRef is the reference body of LU.ForwardInto: the forward half of
// solveRef.
func forwardRef(f *LU, y, b []float64) {
	for i := 0; i < f.n; i++ {
		y[f.pinv[i]] = b[i]
	}
	for j := 0; j < f.n; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
			y[f.li[p]] -= f.lx[p] * yj
		}
	}
}

// solveBlockRef is the reference body of LU.SolveBlockInto.
func solveBlockRef(f *LU, dst, b, work []float64, nrhs int) error {
	n := f.n
	if nrhs < 0 {
		return fmt.Errorf("sparse: SolveBlockInto nrhs %d", nrhs)
	}
	if len(b) != n*nrhs || len(dst) != n*nrhs || len(work) != n*nrhs {
		return fmt.Errorf("sparse: SolveBlockInto buffer lengths (%d,%d,%d), want %d", len(dst), len(b), len(work), n*nrhs)
	}
	y := work
	for r := 0; r < nrhs; r++ {
		o := r * n
		for i := 0; i < n; i++ {
			y[o+f.pinv[i]] = b[o+i]
		}
	}
	for j := 0; j < n; j++ {
		lo, hi := f.lp[j]+1, f.lp[j+1]
		for r := 0; r < nrhs; r++ {
			o := r * n
			yj := y[o+j]
			if yj == 0 {
				continue
			}
			for p := lo; p < hi; p++ {
				y[o+f.li[p]] -= f.lx[p] * yj
			}
		}
	}
	for j := n - 1; j >= 0; j-- {
		d := f.ux[f.up[j+1]-1]
		if d == 0 {
			return ErrSingular
		}
		lo, hi := f.up[j], f.up[j+1]-1
		for r := 0; r < nrhs; r++ {
			o := r * n
			y[o+j] /= d
			yj := y[o+j]
			if yj == 0 {
				continue
			}
			for p := lo; p < hi; p++ {
				y[o+f.ui[p]] -= f.ux[p] * yj
			}
		}
	}
	for r := 0; r < nrhs; r++ {
		o := r * n
		for k := 0; k < n; k++ {
			dst[o+f.q[k]] = y[o+k]
		}
	}
	return nil
}

// The LDLᵀ and CSC kernels as they were written before their inner loops
// moved to length-matched subslices. They are the bitwise references of
// CheckLDLKernelsMatchReference: every operation and its order here is the
// contract LDL.Factor, LDL.SolveInto and CSC.MulVecInto keep.

// ldlFactorRef is the reference body of LDL.Factor.
func ldlFactorRef(f *LDL, a *CSC) error {
	n := f.n
	if a.rows != n || a.cols != n {
		return fmt.Errorf("sparse: LDL.Factor matrix is %dx%d, factorization is %dx%d", a.rows, a.cols, n, n)
	}
	y, d, val, shift := f.y, f.d, a.val, f.shift
	up, ui, us := f.up, f.ui, f.us
	lp, li, lx := f.lp, f.li, f.lx
	rs, rc, rp := f.rs, f.rc, f.rp
	for k := 0; k < n; k++ {
		for p := up[k]; p < up[k+1]; p++ {
			y[ui[p]] += val[us[p]]
		}
		dk := y[k] + shift[k]
		y[k] = 0
		for r := rs[k]; r < rs[k+1]; r++ {
			i, pk := rc[r], rp[r]
			yi := y[i]
			y[i] = 0
			rows, vals := li[lp[i]:pk], lx[lp[i]:pk]
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

// ldlSolveRef is the reference body of LDL.SolveInto.
func ldlSolveRef(f *LDL, dst, b, work []float64) {
	n := f.n
	y, lp, li, lx := work, f.lp, f.li, f.lx
	for k, j := range f.perm {
		y[k] = b[j]
	}
	for i := 0; i < n; i++ {
		if yi := y[i]; yi != 0 {
			rows, vals := li[lp[i]:lp[i+1]], lx[lp[i]:lp[i+1]]
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
		for q, j := range rows {
			s -= vals[q] * y[j]
		}
		y[i] = s
	}
	for k, j := range f.perm {
		dst[j] = y[k]
	}
}

// mulVecIntoRef is the reference body of CSC.MulVecInto.
func mulVecIntoRef(m *CSC, dst, x []float64) {
	clear(dst)
	for j := 0; j < m.cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			dst[m.rowIdx[p]] += m.val[p] * xj
		}
	}
}

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sameFactorBits fails unless got and want hold bit-identical L and U
// values and got's workspace is zero again.
func sameFactorBits(t *testing.T, what string, got, want *LU) {
	t.Helper()
	sameBits(t, what+" L", got.lx, want.lx)
	sameBits(t, what+" U", got.ux, want.ux)
	for i, v := range got.rw {
		if v != 0 {
			t.Fatalf("%s: workspace[%d] = %v after Refactorize, want 0", what, i, v)
		}
	}
}

// zeroSomeValues writes exact zeros into about a fifth of a's stored
// entries, never on the diagonal, so the refactorization meets structural
// zeros and skips their updates.
func zeroSomeValues(rng *rand.Rand, a *CSC) {
	for j := 0; j < a.cols; j++ {
		for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
			if a.rowIdx[p] != j && rng.Float64() < 0.2 {
				a.val[p] = 0
			}
		}
	}
}

// sparseRHS returns a right-hand side of length n with about a third of
// its entries exactly zero, so the triangular solves skip columns.
func sparseRHS(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		if rng.Float64() < 0.67 {
			b[i] = rng.NormFloat64()
		}
	}
	return b
}

// TestLUKernelsMatchReference pins Refactorize, SolveInto and
// SolveBlockInto bit for bit to the reference bodies above: on random
// unsymmetric patterns with structural zeros and sparse right-hand sides,
// through a frozen-pivot ErrSingular bail-out (after which the workspace
// must be zero again, so the next Refactorize still matches), for block
// solves of 1–8 right-hand sides against per-column solves, and on
// bus-blocked patterns whose factors pair their columns (see
// checkPairedKernels).
func TestLUKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 5, 30, 120} {
		for _, density := range []float64{0.02, 0.1, 0.3} {
			what := fmt.Sprintf("n=%d density=%v", n, density)
			a := randomSolvable(rng, n, density)
			got, err := Factorize(a, Options{})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want := got.Clone()
			for round := 0; round < 4; round++ {
				for i := range a.val {
					a.val[i] *= 1 + 0.3*rng.NormFloat64()
				}
				zeroSomeValues(rng, a)
				errGot, errWant := got.Refactorize(a), refactorizeRef(want, a)
				if (errGot == nil) != (errWant == nil) {
					t.Fatalf("%s round %d: Refactorize %v, reference %v", what, round, errGot, errWant)
				}
				sameFactorBits(t, what, got, want)
				if errGot != nil {
					// Both bailed at the same pivot; re-pivot both the same way.
					if err := got.Repivot(a); err != nil {
						t.Fatal(err)
					}
					if err := want.Repivot(a); err != nil {
						t.Fatal(err)
					}
					continue
				}
				b := sparseRHS(rng, n)
				x, xRef := make([]float64, n), make([]float64, n)
				if err := got.SolveInto(x, b, make([]float64, n)); err != nil {
					t.Fatal(err)
				}
				if err := solveRef(want, xRef, b, make([]float64, n)); err != nil {
					t.Fatal(err)
				}
				sameBits(t, what+" solve", x, xRef)
			}
		}
	}

	// A frozen pivot that shrinks relative to its column bails out of
	// both kernels at the same column; the workspace must come back
	// zeroed, so the Refactorize that follows on good values still
	// matches the reference.
	for _, density := range []float64{0.05, 0.3} {
		what := fmt.Sprintf("bail-out density=%v", density)
		a := randomSolvable(rng, 60, density)
		got, err := Factorize(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := got.Clone()
		good := slices.Clone(a.val)
		for j := 0; j < a.cols; j++ {
			for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
				if a.rowIdx[p] == j && j >= a.cols/2 {
					a.val[p] *= 1e-9
				}
			}
		}
		errGot, errWant := got.Refactorize(a), refactorizeRef(want, a)
		if !errors.Is(errGot, ErrSingular) || !errors.Is(errWant, ErrSingular) || errGot.Error() != errWant.Error() {
			t.Fatalf("%s: Refactorize %v, reference %v; want the same ErrSingular", what, errGot, errWant)
		}
		sameFactorBits(t, what, got, want)
		copy(a.val, good)
		if err := got.Refactorize(a); err != nil {
			t.Fatalf("%s: Refactorize after bail-out: %v", what, err)
		}
		if err := refactorizeRef(want, a); err != nil {
			t.Fatal(err)
		}
		sameFactorBits(t, what+" after bail-out", got, want)
	}

	for _, nb := range []int{1, 4, 25, 90, 200} {
		checkPairedKernels(t, rng, nb)
	}

	// SolveBlockInto at 1–8 right-hand sides must equal per-column
	// SolveInto (and the block reference) bit for bit, including columns
	// that are entirely zero.
	a := randomSolvable(rng, 80, 0.06)
	lu, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 80
	for nrhs := 1; nrhs <= 8; nrhs++ {
		what := fmt.Sprintf("nrhs=%d", nrhs)
		b := make([]float64, 0, n*nrhs)
		for r := 0; r < nrhs; r++ {
			if r == 2 {
				b = append(b, make([]float64, n)...)
				continue
			}
			b = append(b, sparseRHS(rng, n)...)
		}
		x, xRef := make([]float64, n*nrhs), make([]float64, n*nrhs)
		if err := lu.SolveBlockInto(x, b, make([]float64, n*nrhs), nrhs); err != nil {
			t.Fatal(err)
		}
		if err := solveBlockRef(lu, xRef, b, make([]float64, n*nrhs), nrhs); err != nil {
			t.Fatal(err)
		}
		sameBits(t, what+" block", x, xRef)
		col := make([]float64, n)
		for r := 0; r < nrhs; r++ {
			if err := lu.SolveInto(col, b[r*n:(r+1)*n], make([]float64, n)); err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%s column %d", what, r), x[r*n:(r+1)*n], col)
		}
	}
}

// busBlocked returns a power-flow-like Jacobian over a random connected
// graph of nb buses, laid out as the augmented Newton state lays out its
// unknowns: bus b's angle is column b and its magnitude column nb+b, with
// a 2×2 block for each bus and each branch and a few lone couplings, and a
// column pre-order that keeps each bus's two columns adjacent. About a
// third of the buses are pinned as a PV bus is: an identity magnitude row
// and exact zeros in every other entry of that row and column. Other
// couplings are exactly zero at random, +0 or −0 (signedZero). fixed marks
// the pinned entries, which a refill keeps.
func busBlocked(rng *rand.Rand, nb int) (a *CSC, perm []int, fixed []bool) {
	adj := make([][]int, nb)
	link := func(i, j int) {
		if i != j && !slices.Contains(adj[i], j) {
			adj[i] = append(adj[i], j)
			adj[j] = append(adj[j], i)
		}
	}
	for b := 1; b < nb; b++ {
		link(b, rng.Intn(b))
	}
	for e := 0; e < nb/3; e++ {
		link(rng.Intn(nb), rng.Intn(nb))
	}
	pinned := make([]bool, nb)
	for b := range pinned {
		pinned[b] = rng.Float64() < 0.35
	}
	c := NewCOO(2*nb, 2*nb)
	g := NewCOO(nb, nb)
	var pin []bool // per entry in COO order
	add := func(r, col int, v float64, keep bool) {
		c.Add(r, col, v)
		pin = append(pin, keep)
	}
	for i := 0; i < nb; i++ {
		g.Add(i, i, 1)
		for _, j := range append([]int{i}, adj[i]...) {
			if j != i {
				g.Add(i, j, 1)
			}
			for _, blk := range [4][2]int{{i, j}, {i, nb + j}, {nb + i, j}, {nb + i, nb + j}} {
				r, col := blk[0], blk[1]
				v := rng.NormFloat64()
				if r == col {
					v = float64(4*len(adj[i])+4) + rng.Float64()
				} else if rng.Float64() < 0.15 {
					v = signedZero(rng)
				}
				rowPinned := r >= nb && pinned[r-nb]
				colPinned := col >= nb && pinned[col-nb]
				switch {
				case rowPinned && r == col:
					add(r, col, 1, true)
				case rowPinned || colPinned:
					add(r, col, 0, true)
				default:
					add(r, col, v, false)
				}
			}
		}
	}
	// A few lone couplings outside the 2×2 blocks unpair some columns and
	// put other sources between a pair's two columns in some of U's.
	for e := 0; e <= nb/4; e++ {
		r, col := rng.Intn(2*nb), rng.Intn(2*nb)
		if (r < nb || !pinned[r-nb]) && (col < nb || !pinned[col-nb]) {
			add(r, col, 0.1*rng.NormFloat64(), false)
		}
	}
	a = c.ToCSC()
	// ToCSC sorts each column; map the COO entries onto value positions.
	fixed = make([]bool, a.NNZ())
	for k := range pin {
		col := c.j[k]
		for p := a.colPtr[col]; p < a.colPtr[col+1]; p++ {
			if a.rowIdx[p] == c.i[k] {
				fixed[p] = pin[k]
			}
		}
	}
	for _, b := range MinDegree(g.ToCSC()) {
		perm = append(perm, b, nb+b)
	}
	return a, perm, fixed
}

// signedZero returns +0 or −0 at random.
func signedZero(rng *rand.Rand) float64 {
	return math.Copysign(0, float64(rng.Intn(2))-0.5)
}

// colOf returns the column of a's value position p.
func colOf(a *CSC, p int) int {
	col := 0
	for a.colPtr[col+1] <= p {
		col++
	}
	return col
}

// busRHS returns a right-hand side for busBlocked's layout in which each
// bus's angle and magnitude entries are both nonzero, one of them zero, or
// both zero, each zero +0 or −0, so the paired solves meet every case of
// their zero tests.
func busRHS(rng *rand.Rand, nb int) []float64 {
	b := make([]float64, 2*nb)
	for i := 0; i < nb; i++ {
		b[i], b[nb+i] = signedZero(rng), signedZero(rng)
		switch rng.Intn(4) {
		case 0:
			b[i], b[nb+i] = rng.NormFloat64(), rng.NormFloat64()
		case 1:
			b[i] = rng.NormFloat64()
		case 2:
			b[nb+i] = rng.NormFloat64()
		}
	}
	return b
}

// checkPairedKernels runs the LU kernels on busBlocked patterns of nb
// buses, whose factors pair each bus's columns, against the reference
// bodies bit for bit: Refactorize over refilled values with random exact
// zeros, SolveInto, ForwardInto followed by BackInto, and ForwardPathInto
// for every unit right-hand side. It drives a frozen-pivot bail-out
// (the workspace must be zero after it) and a Repivot onto row-permuted
// values, which must mark the pairs a fresh Factorize of them marks.
func checkPairedKernels(t *testing.T, rng *rand.Rand, nb int) {
	t.Helper()
	what := fmt.Sprintf("bus-blocked nb=%d", nb)
	a, perm, fixed := busBlocked(rng, nb)
	n := 2 * nb
	got, err := Factorize(a, Options{ColPerm: perm})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if nb > 1 && got.Pairs() < nb/2 {
		t.Fatalf("%s: %d column pairs marked, want at least %d", what, got.Pairs(), nb/2)
	}
	want := got.Clone()
	if got.Pairs() != want.Pairs() {
		t.Fatalf("%s: Clone marks %d pairs, the original %d", what, want.Pairs(), got.Pairs())
	}
	solves := func(what string) {
		t.Helper()
		for round := 0; round < 4; round++ {
			b := busRHS(rng, nb)
			if round == 0 {
				// Signed zeros alone: every column is skipped, and the
				// signs must come through as the reference leaves them.
				for i := range b {
					b[i] = signedZero(rng)
				}
			}
			x, xRef := make([]float64, n), make([]float64, n)
			if err := got.SolveInto(x, b, make([]float64, n)); err != nil {
				t.Fatal(err)
			}
			if err := solveRef(want, xRef, b, make([]float64, n)); err != nil {
				t.Fatal(err)
			}
			sameBits(t, what+" solve", x, xRef)
			z, zRef := make([]float64, n), make([]float64, n)
			if err := got.ForwardInto(z, b); err != nil {
				t.Fatal(err)
			}
			forwardRef(want, zRef, b)
			sameBits(t, what+" ForwardInto", z, zRef)
			if err := got.BackInto(x, z); err != nil {
				t.Fatal(err)
			}
			sameBits(t, what+" BackInto", x, xRef)
		}
		e, z, zRef := make([]float64, n), make([]float64, n), make([]float64, n)
		for r := 0; r < n; r++ {
			e[r] = 1
			forwardRef(want, zRef, e)
			e[r] = 0
			pat, err := got.ForwardPathInto(z, r, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, what+" ForwardPathInto", z, zRef)
			for _, i := range pat {
				z[i] = 0
			}
		}
	}
	refill := func() {
		for p := range a.val {
			if !fixed[p] {
				a.val[p] *= 1 + 0.3*rng.NormFloat64()
				if a.rowIdx[p] != colOf(a, p) && rng.Float64() < 0.1 {
					a.val[p] = signedZero(rng)
				}
			}
		}
	}
	for round := 0; round < 3; round++ {
		refill()
		if err := got.Refactorize(a); err != nil {
			t.Fatalf("%s round %d: Refactorize: %v", what, round, err)
		}
		if err := refactorizeRef(want, a); err != nil {
			t.Fatal(err)
		}
		sameFactorBits(t, what, got, want)
		solves(fmt.Sprintf("%s round %d", what, round))
	}

	// Frozen pivots in the second half of the elimination shrunk by 1e-9
	// bail out of both at the same column and leave the workspace zero.
	good := slices.Clone(a.val)
	late := make([]bool, n)
	for _, col := range perm[n/2:] {
		late[col] = true
	}
	for p := range a.val {
		if col := colOf(a, p); a.rowIdx[p] == col && !fixed[p] && late[col] {
			a.val[p] *= 1e-9
		}
	}
	errGot, errWant := got.Refactorize(a), refactorizeRef(want, a)
	if (errGot == nil) != (errWant == nil) || (errGot != nil && errGot.Error() != errWant.Error()) || (errGot == nil && nb >= 25) {
		t.Fatalf("%s bail-out: Refactorize %v, reference %v; want the same ErrSingular", what, errGot, errWant)
	}
	sameFactorBits(t, what+" bail-out", got, want)
	copy(a.val, good)
	if err := got.Refactorize(a); err != nil {
		t.Fatalf("%s: Refactorize after bail-out: %v", what, err)
	}
	if err := refactorizeRef(want, a); err != nil {
		t.Fatal(err)
	}
	sameFactorBits(t, what+" after bail-out", got, want)
	solves(what + " after bail-out")

	// Swap the angle row of every even bus b with the magnitude row of bus
	// b+1: Repivot chooses new row pivots and marks the pairs of the new
	// factors, fewer than before.
	swapped := &CSC{rows: n, cols: n, colPtr: a.colPtr, rowIdx: slices.Clone(a.rowIdx), val: slices.Clone(a.val)}
	for p, r := range swapped.rowIdx {
		if r < nb && r%2 == 0 {
			swapped.rowIdx[p] = nb + (r+1)%nb
		} else if b := (r - nb + nb - 1) % nb; r >= nb && b%2 == 0 {
			swapped.rowIdx[p] = b
		}
	}
	swapped.sortColumns()
	fresh, err := Factorize(swapped, Options{ColPerm: perm})
	if err != nil {
		t.Fatalf("%s: Factorize of swapped rows: %v", what, err)
	}
	before := got.Pairs()
	if err := got.Repivot(swapped); err != nil {
		t.Fatal(err)
	}
	if err := want.Repivot(swapped); err != nil {
		t.Fatal(err)
	}
	if got.Pairs() != fresh.Pairs() {
		t.Fatalf("%s: Repivot marks %d pairs, a fresh Factorize %d", what, got.Pairs(), fresh.Pairs())
	}
	t.Logf("%s: %d pairs, %d after the row swap", what, before, got.Pairs())
	for round := 0; round < 2; round++ {
		for p := range swapped.val {
			swapped.val[p] *= 1 + 0.01*rng.NormFloat64()
		}
		errGot, errWant := got.Refactorize(swapped), refactorizeRef(want, swapped)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("%s swapped round %d: Refactorize %v, reference %v", what, round, errGot, errWant)
		}
		sameFactorBits(t, what+" swapped", got, want)
		if errGot != nil {
			if err := got.Repivot(swapped); err != nil {
				t.Fatal(err)
			}
			if err := want.Repivot(swapped); err != nil {
				t.Fatal(err)
			}
		}
		solves(fmt.Sprintf("%s swapped round %d", what, round))
	}
}
