package sparse

// BlockMinDegree computes a fill-reducing column pre-order of the
// symmetrized pattern of m at supernode granularity: the caller groups
// columns into supernodes (e.g. a bus's paired angle/magnitude unknowns,
// or a bus's paired P/Q balance rows), the ordering runs classical
// minimum-degree on the CONDENSED quotient graph — one node per
// supernode, an edge wherever any member column pair couples — and each
// eliminated supernode expands to its member columns in their given
// order. Grouping known 2×2 blocks this way halves (or better) the
// elimination-graph size, keeps tightly-coupled columns adjacent in the
// pivot order, and cannot split a block the factorization would rather
// eliminate together.
//
// Every column of m must appear in exactly one supernode. Ties break
// toward the lowest supernode index, so the ordering is deterministic.
func BlockMinDegree(m *CSC, super [][]int) []int {
	n := m.cols
	if m.rows != n {
		panic("sparse: BlockMinDegree requires a square matrix")
	}
	ns := len(super)
	colOf := make([]int, n)
	for i := range colOf {
		colOf[i] = -1
	}
	covered := 0
	for s, cols := range super {
		for _, c := range cols {
			if c < 0 || c >= n || colOf[c] >= 0 {
				panic("sparse: BlockMinDegree supernodes must partition the columns")
			}
			colOf[c] = s
			covered++
		}
	}
	if covered != n {
		panic("sparse: BlockMinDegree supernodes must cover every column")
	}

	// Condensed quotient graph over the symmetrized pattern.
	adj := make([]map[int]bool, ns)
	for s := range adj {
		adj[s] = make(map[int]bool)
	}
	for j := 0; j < n; j++ {
		sj := colOf[j]
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			si := colOf[m.rowIdx[p]]
			if si != sj {
				adj[si][sj] = true
				adj[sj][si] = true
			}
		}
	}

	perm := make([]int, 0, n)
	eliminated := make([]bool, ns)
	nbrs := make([]int, 0, 64)
	for range ns {
		best, bestDeg := -1, int(^uint(0)>>1)
		for s := 0; s < ns; s++ {
			if !eliminated[s] && len(adj[s]) < bestDeg {
				best, bestDeg = s, len(adj[s])
			}
		}
		perm = append(perm, super[best]...)
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
