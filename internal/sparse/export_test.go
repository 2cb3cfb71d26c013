package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"testing"
)

// RandomSparse exposes randomSparse to the external tests.
var RandomSparse = randomSparse

// MinDegreeReference is the differential reference of MinDegree: a
// standalone classical dense-elimination-graph minimum-degree ordering
// over symmetricAdjacency, ties broken toward the lowest node index, which
// MinDegree — BlockMinDegree on singleton supernodes — must match exactly.
func MinDegreeReference(m *CSC) []int {
	n := m.cols
	adjLists := symmetricAdjacency(m)
	adj := make([]map[int]bool, n)
	for v, nbrs := range adjLists {
		adj[v] = make(map[int]bool, len(nbrs)*2)
		for _, w := range nbrs {
			adj[v][w] = true
		}
	}

	perm := make([]int, 0, n)
	eliminated := make([]bool, n)
	nbrs := make([]int, 0, 64)
	for len(perm) < n {
		best, bestDeg := -1, int(^uint(0)>>1)
		for v := 0; v < n; v++ {
			if !eliminated[v] && len(adj[v]) < bestDeg {
				best, bestDeg = v, len(adj[v])
			}
		}
		perm = append(perm, best)
		eliminated[best] = true
		nbrs = nbrs[:0]
		for w := range adj[best] {
			nbrs = append(nbrs, w)
			delete(adj[w], best)
		}
		adj[best] = nil
		for a := 0; a < len(nbrs); a++ {
			for b := a + 1; b < len(nbrs); b++ {
				adj[nbrs[a]][nbrs[b]] = true
				adj[nbrs[b]][nbrs[a]] = true
			}
		}
	}
	return perm
}

// Dims returns the matrix dimensions.
func (m *CSC) Dims() (int, int) { return m.rows, m.cols }

// MulVec computes y = M·x.
func (m *CSC) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: %dx%d by %d", m.rows, m.cols, len(x)))
	}
	y := make([]float64, m.rows)
	m.MulVecInto(y, x)
	return y
}

// MulVecT computes y = Mᵀ·x without forming the transpose.
func (m *CSC) MulVecT(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("sparse: MulVecT dimension mismatch: %dx%d^T by %d", m.rows, m.cols, len(x)))
	}
	y := make([]float64, m.cols)
	for j := 0; j < m.cols; j++ {
		var s float64
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			s += m.val[p] * x[m.rowIdx[p]]
		}
		y[j] = s
	}
	return y
}

// Dense expands the matrix to a row-major [][]float64.
func (m *CSC) Dense() [][]float64 {
	out := make([][]float64, m.rows)
	for i := range out {
		out[i] = make([]float64, m.cols)
	}
	for j := 0; j < m.cols; j++ {
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			out[m.rowIdx[p]][j] = m.val[p]
		}
	}
	return out
}

// symmetricAdjacency builds the adjacency lists of the undirected graph of
// M + Mᵀ, excluding self loops.
func symmetricAdjacency(m *CSC) [][]int {
	n := m.cols
	adj := make([][]int, n)
	add := func(a, b int) {
		if a != b {
			adj[a] = append(adj[a], b)
		}
	}
	for j := 0; j < n; j++ {
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			i := m.rowIdx[p]
			add(i, j)
			add(j, i)
		}
	}
	// Deduplicate.
	for v := range adj {
		sort.Ints(adj[v])
		out := adj[v][:0]
		prev := -1
		for _, w := range adj[v] {
			if w != prev {
				out = append(out, w)
				prev = w
			}
		}
		adj[v] = out
	}
	return adj
}

// CheckLDLKernelsMatchReference factors a (both triangles stored) under
// perm and shift twice, with LDL.Factor and with the reference body
// ldlFactorRef, and fails t unless both return the same error (nil, or
// ErrSingular at the same step), L and D agree bit for bit, and Factor
// left its workspace zero. It then requires LDL.SolveInto and
// CSC.MulVecInto on every right-hand side in rhs to match their reference
// bodies bit for bit as well, and returns Factor's error.
func CheckLDLKernelsMatchReference(t *testing.T, what string, a *CSC, perm []int, shift []float64, rhs ...[]float64) error {
	t.Helper()
	got, err := NewLDL(a, perm, shift)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := NewLDL(a, perm, shift)
	if err != nil {
		t.Fatal(err)
	}
	ferr := checkLDLFactor(t, what, got, want, a)
	if ferr != nil {
		return ferr
	}
	checkLDLSolves(t, what, got, want, rhs...)
	n := a.cols
	x, xRef := make([]float64, n), make([]float64, n)
	for _, b := range rhs {
		a.MulVecInto(x, b)
		mulVecIntoRef(a, xRef, b)
		sameBits(t, what+" MulVecInto", x, xRef)
	}
	return nil
}

// checkLDLFactor factors a into got with LDL.Factor and into want with
// ldlFactorRef and fails t unless the two errors read the same, L and D
// agree bit for bit, and got's workspace is zero. It returns the error.
func checkLDLFactor(t *testing.T, what string, got, want *LDL, a *CSC) error {
	t.Helper()
	err, errRef := got.Factor(a), ldlFactorRef(want, a)
	if fmt.Sprint(err) != fmt.Sprint(errRef) {
		t.Fatalf("%s: Factor returned %v, reference %v", what, err, errRef)
	}
	sameBits(t, what+" L", got.lx, want.lx)
	sameBits(t, what+" D", got.d, want.d)
	for i, v := range got.y {
		if v != 0 {
			t.Fatalf("%s: workspace[%d] = %v after Factor, want 0", what, i, v)
		}
	}
	return err
}

// checkLDLSolves requires LDL.SolveInto on got to match ldlSolveRef on
// want bit for bit for every right-hand side in rhs.
func checkLDLSolves(t *testing.T, what string, got, want *LDL, rhs ...[]float64) {
	t.Helper()
	n := got.n
	x, xRef := make([]float64, n), make([]float64, n)
	for _, b := range rhs {
		if err := got.SolveInto(x, b, make([]float64, n)); err != nil {
			t.Fatal(err)
		}
		ldlSolveRef(want, xRef, b, make([]float64, n))
		sameBits(t, what+" solve", x, xRef)
	}
}

// CheckLDLQuadEdges drives the quad paths of LDL.Factor and LDL.SolveInto
// through their edge cases on a (both triangles stored, finite and
// nonsingular under perm and shift), bit for bit against ldlFactorRef and
// ldlSolveRef. a's factor must mark a quad whose columns share rows below
// it. The cases:
//
//   - right-hand sides that make the quad's forward values y0..y3 exactly
//     zero, each one alone and all four, one that makes y0 a −0, and one
//     that leaves all four nonzero, on a factor whose quad columns hold
//     small integers (so the zeros are exact) with some stored zeros;
//   - a stored entry of a set to exactly zero inside the quad's diagonal
//     block and one in a row the quad shares;
//   - a zero pivot inside the quad, one right after it, and a NaN pivot on
//     a row below a whole quad: each must return ErrSingular at the
//     reference's step and leave the workspace zero, and the next Factor
//     of a must match the reference with no reset in between.
func CheckLDLQuadEdges(t *testing.T, what string, a *CSC, perm []int, shift []float64) {
	t.Helper()
	got, err := NewLDL(a, perm, shift)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := NewLDL(a, perm, shift)
	if err != nil {
		t.Fatal(err)
	}
	qi, below := -1, -1 // a quad with shared rows; a quad whose next column is its parent
	for i := 0; i+3 < got.n; i++ {
		if !hasMark(got.quads, i) || got.lp[i+4] == got.lp[i+3] {
			continue
		}
		if qi < 0 {
			qi = i
		}
		if below < 0 && got.li[got.lp[i+3]] == i+4 {
			below = i
		}
	}
	if qi < 0 || below < 0 {
		t.Fatalf("%s: no quad with shared rows (%d) or a parent right after it (%d)", what, qi, below)
	}
	if err := checkLDLFactor(t, what, got, want, a); err != nil {
		t.Fatalf("%s: %v", what, err)
	}

	// Forward values: zero before the quad, then chosen in step order so
	// that y_c = target[c] exactly.
	lx, lp := got.lx, got.lp
	for p := lp[qi]; p < lp[qi+4]; p++ {
		lx[p] = float64(p%5 - 2)
	}
	copy(want.lx, lx)
	c := func(col, row int) float64 { return lx[lp[qi+col]+row-col-1] } // L(qi+row, qi+col)
	rhsFor := func(target [4]float64, tail bool) []float64 {
		n := got.n
		y := make([]float64, n) // step order
		// Every other row after the quad starts as −0, which a skipped
		// column must leave as it is, and the rest as +0 or, with tail
		// set, a sine.
		for k := qi + 4; k < n; k++ {
			if k%2 == 0 {
				y[k] = math.Copysign(0, -1)
			} else if tail {
				y[k] = math.Sin(float64(k))
			}
		}
		var v [4]float64 // the forward values, which the skips leave exact
		for r := 0; r < 4; r++ {
			s := target[r]
			for col := 0; col < r; col++ {
				s += c(col, r) * v[col]
			}
			y[qi+r], v[r] = s, target[r]
		}
		b := make([]float64, n)
		for k, j := range got.perm {
			b[j] = y[k]
		}
		return b
	}
	var rhs [][]float64
	for _, tail := range []bool{false, true} {
		for zero := 0; zero <= 4; zero++ {
			target := [4]float64{3, -5, 7, -11}
			if zero == 4 {
				target = [4]float64{}
			} else {
				target[zero] = 0
			}
			rhs = append(rhs, rhsFor(target, tail))
		}
		rhs = append(rhs, rhsFor([4]float64{math.Copysign(0, -1), 2, -3, 4}, tail), rhsFor([4]float64{1, 2, 3, 4}, tail))
	}
	checkLDLSolves(t, what+" quad right-hand sides", got, want, rhs...)

	entry := func(i, j int) int { return a.Pos(got.perm[i], got.perm[j]) } // by steps
	with := func(set func(m *CSC)) *CSC {
		m := *a
		m.val = slices.Clone(a.val)
		set(&m)
		return &m
	}
	// Stored zeros: the first stored entry off the diagonal of the quad's
	// block, and the first between a quad column and a row it shares.
	var inside, outside [2]int
	for _, ij := range [][2]int{{qi, qi + 1}, {qi, qi + 2}, {qi, qi + 3}, {qi + 1, qi + 2}, {qi + 1, qi + 3}, {qi + 2, qi + 3}} {
		if entry(ij[0], ij[1]) >= 0 {
			inside = ij
			break
		}
	}
	for col := qi; col < qi+4 && outside == [2]int{}; col++ {
		for _, r := range got.li[got.lp[qi+3]:got.lp[qi+4]] {
			if entry(col, r) >= 0 {
				outside = [2]int{col, r}
				break
			}
		}
	}
	if inside == [2]int{} || outside == [2]int{} {
		t.Fatalf("%s: quad %d has no stored entry inside (%v) or in a shared row (%v)", what, qi, inside, outside)
	}
	zeroed := with(func(m *CSC) {
		for _, ij := range [][2]int{inside, outside} {
			m.val[entry(ij[0], ij[1])], m.val[entry(ij[1], ij[0])] = 0, 0
		}
	})
	if err := checkLDLFactor(t, what+" stored zeros", got, want, zeroed); err != nil {
		t.Fatalf("%s stored zeros: %v", what, err)
	}

	// Singular pivots, each followed by a Factor of a with no reset.
	zeroPivot := func(k int) *CSC {
		return with(func(m *CSC) {
			col := got.perm[k]
			for p := m.colPtr[col]; p < m.colPtr[col+1]; p++ {
				m.val[p] = 0
			}
			m.val[entry(k, k)] = -got.shift[k]
		})
	}
	nanPivot := with(func(m *CSC) { m.val[entry(below+4, below+4)] = math.NaN() })
	for _, tc := range []struct {
		name string
		m    *CSC
		step int
	}{
		{"zero pivot inside a quad", zeroPivot(qi + 2), qi + 2},
		{"zero pivot right after a quad", zeroPivot(below + 4), below + 4},
		{"NaN pivot below a quad", nanPivot, below + 4},
	} {
		err := checkLDLFactor(t, what+" "+tc.name, got, want, tc.m)
		if !errors.Is(err, ErrSingular) || !strings.Contains(err.Error(), fmt.Sprintf("at step %d ", tc.step)) {
			t.Fatalf("%s %s: Factor returned %v, want ErrSingular at step %d", what, tc.name, err, tc.step)
		}
		if err := checkLDLFactor(t, what+" after "+tc.name, got, want, a); err != nil {
			t.Fatalf("%s after %s: %v", what, tc.name, err)
		}
	}
}

// QuadStats returns the number of quads NewLDL marked in f and the width
// of f's trailing supernode: the most columns t..n-1 that nest one into
// the next.
func (f *LDL) QuadStats() (quads, tail int) {
	for _, w := range f.quads {
		quads += bits.OnesCount(uint(w))
	}
	tail = 1
	for t := f.n - 2; t >= 0 && f.lp[t+1]-f.lp[t] == f.lp[t+2]-f.lp[t+1]+1 && f.li[f.lp[t]] == t+1; t-- {
		tail++
	}
	return quads, tail
}
