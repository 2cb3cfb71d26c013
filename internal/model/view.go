package model

import "fmt"

// OutageView is a lightweight what-if overlay on an immutable shared base
// Network: a branch/generator outage mask plus an optional generator
// redispatch, instead of a deep clone per scenario. The N-1 sweep keeps one
// base Network and one view per worker, so simulating an outage allocates
// nothing — the paper's reliability agent evaluates hundreds of these per
// query.
//
// The base must not be mutated while views over it are alive. Views
// themselves are not safe for concurrent use; share the base, not the view.
type OutageView struct {
	// Base is the shared pre-contingency network. Read-only.
	Base *Network

	branchOut []int
	genOut    []int
	// gens is the copy-on-write generator slice; nil until a dispatch
	// override is applied. gensBuf recycles its storage across Resets so a
	// sweep of redispatching views allocates the copy once, not per outage.
	gens    []Generator
	gensBuf []Generator
	// loadScale is the uniform demand multiplier; 0 means unset (1.0).
	// Episode and Monte Carlo scenarios use it to sweep operating points
	// over one immutable base without cloning the load table.
	loadScale float64
}

// NewOutageView returns an empty view over base (no outages, no overrides).
func NewOutageView(base *Network) *OutageView {
	return &OutageView{Base: base}
}

// Reset clears all outages and overrides, reusing the view's storage.
func (v *OutageView) Reset() {
	v.branchOut = v.branchOut[:0]
	v.genOut = v.genOut[:0]
	if v.gens != nil {
		v.gensBuf = v.gens
		v.gens = nil
	}
	v.loadScale = 0
}

// OutBranch marks branch k as outaged in the view.
func (v *OutageView) OutBranch(k int) { v.branchOut = append(v.branchOut, k) }

// OutGen marks generator g as outaged in the view.
func (v *OutageView) OutGen(g int) { v.genOut = append(v.genOut, g) }

// SetGenP overrides generator g's active dispatch (MW), copying the base
// generator slice on first write (into recycled storage when a prior Reset
// left some).
func (v *OutageView) SetGenP(g int, p float64) {
	if v.gens == nil {
		if cap(v.gensBuf) >= len(v.Base.Gens) {
			v.gens = v.gensBuf[:len(v.Base.Gens)]
		} else {
			v.gens = make([]Generator, len(v.Base.Gens))
		}
		copy(v.gens, v.Base.Gens)
	}
	v.gens[g].P = p
}

// ScaleLoads sets a uniform demand multiplier on every in-service load
// (both P and Q). Factors at or below zero, and exactly 1, mean nominal
// demand.
func (v *OutageView) ScaleLoads(f float64) { v.loadScale = f }

// LoadScale returns the effective demand multiplier (1 when unset).
func (v *OutageView) LoadScale() float64 {
	if v.loadScale <= 0 {
		return 1
	}
	return v.loadScale
}

// BranchesOut returns the outaged branch indices. Read-only.
func (v *OutageView) BranchesOut() []int { return v.branchOut }

// GensOut returns the outaged generator indices. Read-only.
func (v *OutageView) GensOut() []int { return v.genOut }

// HasGenChanges reports whether the view touches generation (outages or
// redispatch) — such views change the power flow classification, not just
// the admittance matrix.
func (v *OutageView) HasGenChanges() bool { return len(v.genOut) > 0 || v.gens != nil }

// HasSpecChanges reports whether the view changes the power flow
// specification vectors at all — generation changes or a non-nominal load
// scale. Solvers use it to decide between the pristine classification and
// an in-place re-derivation.
func (v *OutageView) HasSpecChanges() bool {
	return v.HasGenChanges() || v.LoadScale() != 1
}

// Gen returns generator g's effective record under the view: the base
// generator with any dispatch override applied. Status is NOT applied here
// — callers combine it with GenInService, mirroring how solvers read a
// materialized network.
func (v *OutageView) Gen(g int) Generator {
	if v.gens != nil {
		return v.gens[g]
	}
	return v.Base.Gens[g]
}

// GenInService reports the effective status of generator g under the view.
func (v *OutageView) GenInService(g int) bool {
	for _, o := range v.genOut {
		if o == g {
			return false
		}
	}
	return v.Base.Gens[g].InService
}

// Materialize renders the view as a Network, the form the test-side
// references solve; outage studies solve views in place and never call
// it. Only the component slices the view modifies are copied and the rest
// are shared with the base, so the result is read-only. The view is not
// consumed: dispatch overrides are copied out, not handed over.
func (v *OutageView) Materialize() *Network {
	materializeCount.Add(1)
	n := &Network{
		Name:     v.Base.Name,
		BaseMVA:  v.Base.BaseMVA,
		Buses:    v.Base.Buses,
		Loads:    v.Base.Loads,
		Gens:     v.Base.Gens,
		Branches: v.Base.Branches,
	}
	if len(v.branchOut) > 0 {
		n.Branches = append([]Branch(nil), v.Base.Branches...)
		for _, k := range v.branchOut {
			n.Branches[k].InService = false
		}
	}
	if v.gens != nil || len(v.genOut) > 0 {
		src := v.Base.Gens
		if v.gens != nil {
			src = v.gens
		}
		n.Gens = append([]Generator(nil), src...)
		for _, g := range v.genOut {
			n.Gens[g].InService = false
		}
	}
	if ls := v.LoadScale(); ls != 1 {
		n.Loads = append([]Load(nil), v.Base.Loads...)
		for i := range n.Loads {
			n.Loads[i].P *= ls
			n.Loads[i].Q *= ls
		}
	}
	return n
}

// Topology is an immutable CSR adjacency over a network's in-service
// branches, built once per sweep so per-outage connectivity checks run
// allocation-free against caller-owned buffers. Safe for concurrent use.
type Topology struct {
	// N is the bus count.
	N int
	// ptr/bus/br: bus i's incident edges are positions ptr[i]..ptr[i+1],
	// each giving the neighbor bus and the branch index of the edge.
	ptr []int
	bus []int
	br  []int
}

// NewTopology builds the adjacency of n's in-service branches.
func NewTopology(n *Network) *Topology {
	nb := len(n.Buses)
	t := &Topology{N: nb, ptr: make([]int, nb+1)}
	for _, b := range n.Branches {
		if !b.InService {
			continue
		}
		t.ptr[b.From+1]++
		t.ptr[b.To+1]++
	}
	for i := 0; i < nb; i++ {
		t.ptr[i+1] += t.ptr[i]
	}
	t.bus = make([]int, t.ptr[nb])
	t.br = make([]int, t.ptr[nb])
	next := append([]int(nil), t.ptr[:nb]...)
	for k, b := range n.Branches {
		if !b.InService {
			continue
		}
		t.bus[next[b.From]], t.br[next[b.From]] = b.To, k
		next[b.From]++
		t.bus[next[b.To]], t.br[next[b.To]] = b.From, k
		next[b.To]++
	}
	return t
}

// TopologyData is the persistable form of a Topology: the raw CSR
// adjacency arrays, exported so a prebuilt topology can be written to the
// engine's compiled-artifact store and rehydrated without a rebuild. The
// arrays are shared with the Topology they came from — treat them as
// immutable, exactly like the Topology itself.
type TopologyData struct {
	N   int
	Ptr []int
	Bus []int
	Br  []int
}

// Export returns the persistable form of the topology.
func (t *Topology) Export() TopologyData {
	return TopologyData{N: t.N, Ptr: t.ptr, Bus: t.bus, Br: t.br}
}

// TopologyFromData rehydrates a Topology from its persisted form,
// validating the CSR invariants so a corrupt or truncated artifact file
// fails the load instead of producing a topology that misclassifies
// islanding.
func TopologyFromData(d TopologyData) (*Topology, error) {
	if d.N < 0 || len(d.Ptr) != d.N+1 {
		return nil, fmt.Errorf("model: topology data: ptr length %d for %d buses", len(d.Ptr), d.N)
	}
	if d.Ptr[0] != 0 || d.Ptr[d.N] != len(d.Bus) || len(d.Bus) != len(d.Br) {
		return nil, fmt.Errorf("model: topology data: inconsistent CSR extents")
	}
	for i := 0; i < d.N; i++ {
		if d.Ptr[i+1] < d.Ptr[i] {
			return nil, fmt.Errorf("model: topology data: non-monotonic row pointers at bus %d", i)
		}
	}
	for p, b := range d.Bus {
		if b < 0 || b >= d.N || d.Br[p] < 0 {
			return nil, fmt.Errorf("model: topology data: out-of-range adjacency entry %d", p)
		}
	}
	return &Topology{N: d.N, ptr: d.Ptr, bus: d.Bus, br: d.Br}, nil
}

// IslandsMasked labels buses by connected component with every branch k
// having mask[k] == true removed (a nil mask removes nothing), writing
// component ids into comp (length N) and using stack (length ≥ N) as
// scratch. It returns the component count. It is the one islanding
// traversal: N-1 and N-2 outages set their one or two branches in a mask,
// cascades their cumulative trip set. Labeling matches a depth-first
// traversal from bus 0 upward; only label equality is meaningful to
// callers. It allocates nothing, and the mask lookup is O(1) per edge.
func (t *Topology) IslandsMasked(mask []bool, comp, stack []int) int {
	for i := range comp[:t.N] {
		comp[i] = -1
	}
	count := 0
	for s := 0; s < t.N; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = count
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for p := t.ptr[v]; p < t.ptr[v+1]; p++ {
				if mask != nil && mask[t.br[p]] {
					continue
				}
				if w := t.bus[p]; comp[w] == -1 {
					comp[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return count
}
