package sparse

// MinDegree computes a minimum-degree ordering of the symmetrized pattern
// of m (pattern of M + Mᵀ): at each step the uneliminated node of smallest
// degree in the elimination graph is removed and its neighbours are
// connected into a clique. On power-system matrices this typically yields
// ~3x less LU fill than reverse Cuthill-McKee, which translates directly
// into faster factorization, refactorization and triangular solves; it is
// the default ordering of Factorize.
//
// It is the singleton-supernode case of BlockMinDegree: the quotient
// graph of one-column supernodes is the elimination graph itself, so one
// elimination kernel serves both. That kernel is the classical
// dense-elimination-graph variant (adjacency sets, linear minimum scan):
// O(n²) in the worst case, which is negligible against factorization time
// at the system sizes involved and is amortized further by the ordering
// caches upstream. Ties break toward the lowest node index, so the
// ordering is deterministic.
func MinDegree(m *CSC) []int {
	n := m.cols
	if m.rows != n {
		panic("sparse: MinDegree requires a square matrix")
	}
	cols := IdentityPerm(n)
	super := make([][]int, n)
	for i := range super {
		super[i] = cols[i : i+1 : i+1]
	}
	return BlockMinDegree(m, super)
}

// IdentityPerm returns the identity permutation of length n.
func IdentityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
