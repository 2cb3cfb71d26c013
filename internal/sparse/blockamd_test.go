package sparse

import "testing"

// arrowheadCSC builds an n×n symmetric arrowhead-plus-chain pattern: dense
// first row/column plus a tridiagonal band — a shape where ordering
// matters (natural order fills completely, min-degree stays linear).
func arrowheadCSC(n int) *CSC {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
		if i > 0 {
			c.Add(0, i, 1)
			c.Add(i, 0, 1)
		}
		if i+1 < n {
			c.Add(i, i+1, -1)
			c.Add(i+1, i, -1)
		}
	}
	return c.ToCSC()
}

func TestBlockMinDegreeIsPermutation(t *testing.T) {
	n := 12
	m := arrowheadCSC(n)
	super := [][]int{{0}, {1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11}}
	perm := BlockMinDegree(m, super)
	if len(perm) != n {
		t.Fatalf("perm length %d want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, c := range perm {
		if c < 0 || c >= n || seen[c] {
			t.Fatalf("perm %v is not a permutation", perm)
		}
		seen[c] = true
	}
}

func TestBlockMinDegreeKeepsSupernodeColumnsAdjacent(t *testing.T) {
	m := arrowheadCSC(10)
	super := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}}
	perm := BlockMinDegree(m, super)
	pos := make([]int, 10)
	for p, c := range perm {
		pos[c] = p
	}
	for _, s := range super {
		if pos[s[1]] != pos[s[0]]+1 {
			t.Fatalf("supernode %v split in perm %v", s, perm)
		}
	}
}

func TestBlockMinDegreeRejectsBadPartition(t *testing.T) {
	m := arrowheadCSC(4)
	for _, bad := range [][][]int{
		{{0, 1}, {1, 2}, {3}}, // duplicate column
		{{0, 1}, {3}},         // missing column
		{{0, 1, 2, 3, 4}},     // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("partition %v did not panic", bad)
				}
			}()
			BlockMinDegree(m, bad)
		}()
	}
}

func TestBlockMinDegreeFactorizes(t *testing.T) {
	// The permutation must be usable as an LU column pre-order.
	n := 16
	m := arrowheadCSC(n)
	super := make([][]int, 0, n/2)
	for i := 0; i < n; i += 2 {
		super = append(super, []int{i, i + 1})
	}
	perm := BlockMinDegree(m, super)
	lu, err := Factorize(m, Options{ColPerm: perm})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%3) + 1
	}
	x, err := lu.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	r := m.MulVec(x)
	for i := range r {
		if d := r[i] - b[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("residual[%d] = %v", i, d)
		}
	}
}
