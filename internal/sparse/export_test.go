package sparse

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
