package model

import (
	"math/cmplx"
	"testing"
)

// viewTestNetwork is a 5-bus meshed network with a radial spur (bus 4 hangs
// off bus 3 via branch 5) and a parallel pair between buses 0 and 1.
func viewTestNetwork() *Network {
	return &Network{
		Name:    "view-test",
		BaseMVA: 100,
		Buses: []Bus{
			{ID: 1, Type: Slack, Vm: 1.04, VMin: 0.9, VMax: 1.1},
			{ID: 2, Type: PV, Vm: 1.02, VMin: 0.9, VMax: 1.1},
			{ID: 3, Type: PQ, Vm: 1, VMin: 0.9, VMax: 1.1, BS: 5},
			{ID: 4, Type: PQ, Vm: 1, VMin: 0.9, VMax: 1.1},
			{ID: 5, Type: PQ, Vm: 1, VMin: 0.9, VMax: 1.1},
		},
		Loads: []Load{
			{Bus: 2, P: 60, Q: 20, InService: true},
			{Bus: 3, P: 40, Q: 10, InService: true},
			{Bus: 4, P: 15, Q: 5, InService: true},
		},
		Gens: []Generator{
			{Bus: 0, P: 80, PMin: 0, PMax: 200, QMin: -80, QMax: 80, VSetpoint: 1.04, InService: true},
			{Bus: 1, P: 40, PMin: 0, PMax: 100, QMin: -50, QMax: 50, VSetpoint: 1.02, InService: true},
		},
		Branches: []Branch{
			{From: 0, To: 1, R: 0.02, X: 0.06, B: 0.03, InService: true},
			{From: 0, To: 1, R: 0.05, X: 0.19, B: 0.02, InService: true}, // parallel circuit
			{From: 0, To: 2, R: 0.06, X: 0.17, B: 0.02, InService: true},
			{From: 1, To: 2, R: 0.04, X: 0.17, B: 0.02, InService: true},
			{From: 1, To: 3, R: 0.05, X: 0.2, B: 0.02, Tap: 0.98, IsTransformer: true, InService: true},
			{From: 3, To: 4, R: 0.08, X: 0.2, B: 0.01, InService: true}, // radial spur
			{From: 2, To: 3, R: 0.03, X: 0.1, B: 0.01, InService: false},
		},
	}
}

func TestOutageViewMaterializeSharesUntouchedSlices(t *testing.T) {
	n := viewTestNetwork()
	v := NewOutageView(n)
	v.OutBranch(2)
	post := v.Materialize()
	if post.Branches[2].InService {
		t.Fatal("outaged branch still in service")
	}
	if n.Branches[2].InService != true {
		t.Fatal("view mutated the base")
	}
	if &post.Buses[0] != &n.Buses[0] || &post.Loads[0] != &n.Loads[0] || &post.Gens[0] != &n.Gens[0] {
		t.Fatal("untouched slices should be shared with the base")
	}
	if &post.Branches[0] == &n.Branches[0] {
		t.Fatal("branch slice must be copied when a branch is outaged")
	}

	v.Reset()
	if len(v.BranchesOut()) != 0 || v.HasGenChanges() {
		t.Fatal("Reset did not clear the view")
	}
	v.OutGen(1)
	v.SetGenP(0, 123)
	post = v.Materialize()
	if post.Gens[1].InService || post.Gens[0].P != 123 {
		t.Fatalf("gen view not applied: %+v", post.Gens)
	}
	if n.Gens[1].InService != true || n.Gens[0].P != 80 {
		t.Fatal("gen view mutated the base")
	}
	if &post.Branches[0] != &n.Branches[0] {
		t.Fatal("branch slice should be shared for a generation-only view")
	}
	if !v.GenInService(0) || v.GenInService(1) {
		t.Fatal("GenInService mask wrong")
	}
}

func TestTopologyIslandsMatchesConnectedComponents(t *testing.T) {
	n := viewTestNetwork()
	topo := NewTopology(n)
	comp := make([]int, len(n.Buses))
	stack := make([]int, len(n.Buses))
	mask := make([]bool, len(n.Branches))
	for k := range n.Branches {
		post := n.Clone()
		post.Branches[k].InService = false
		refComp, refCount := post.ConnectedComponents()
		mask[k] = true
		got := topo.IslandsMasked(mask, comp, stack)
		mask[k] = false
		if got != refCount {
			t.Fatalf("branch %d: IslandsMasked = %d, ConnectedComponents = %d", k, got, refCount)
		}
		// Labels must agree up to relabeling: same partition.
		for i := range comp {
			for j := range comp {
				if (comp[i] == comp[j]) != (refComp[i] == refComp[j]) {
					t.Fatalf("branch %d: partition differs at buses %d,%d", k, i, j)
				}
			}
		}
	}
	// An all-false mask removes nothing.
	if got := topo.IslandsMasked(mask, comp, stack); got != 1 {
		t.Fatalf("base topology should be one island, got %d", got)
	}
}

func TestPatchBranchOutageMatchesRebuild(t *testing.T) {
	n := viewTestNetwork()
	base := BuildYbus(n)
	for k, br := range n.Branches {
		y := base.Copy()
		patch, ok := y.PatchBranchOutage(n, k)
		if !br.InService {
			if ok {
				t.Fatalf("branch %d: patched an out-of-service branch", k)
			}
			continue
		}
		if !ok {
			t.Fatalf("branch %d: patch refused", k)
		}
		post := n.Clone()
		post.Branches[k].InService = false
		want := BuildYbus(post)
		// Compare every structural entry of the patched matrix against the
		// rebuilt one (the patched pattern is a superset).
		for p, nz := range y.NZ {
			got := y.NZv[p]
			ref := want.At(nz[0], nz[1])
			if cmplx.Abs(got-ref) > 1e-12 {
				t.Fatalf("branch %d: Y[%d,%d] = %v, rebuild %v", k, nz[0], nz[1], got, ref)
			}
		}
		if y.Yff[k] != 0 || y.Yft[k] != 0 || y.Ytf[k] != 0 || y.Ytt[k] != 0 {
			t.Fatalf("branch %d: two-port admittances not zeroed", k)
		}

		// Restore must be bitwise exact, not merely close: sweeps
		// patch/restore hundreds of times on one matrix.
		y.Restore(patch)
		for p := range y.NZv {
			if y.NZv[p] != base.NZv[p] {
				t.Fatalf("branch %d: NZv[%d] not restored exactly: %v vs %v", k, p, y.NZv[p], base.NZv[p])
			}
		}
		if y.Yff[k] != base.Yff[k] || y.Yft[k] != base.Yft[k] || y.Ytf[k] != base.Ytf[k] || y.Ytt[k] != base.Ytt[k] {
			t.Fatalf("branch %d: two-port admittances not restored", k)
		}
	}
}

func TestYbusCopySharesPatternOwnsValues(t *testing.T) {
	n := viewTestNetwork()
	y := BuildYbus(n)
	c := y.Copy()
	if &c.NZ[0] != &y.NZ[0] || &c.RowPtr[0] != &y.RowPtr[0] || &c.DiagIdx[0] != &y.DiagIdx[0] {
		t.Fatal("Copy must share the structural pattern")
	}
	if &c.NZv[0] == &y.NZv[0] || &c.Yff[0] == &y.Yff[0] {
		t.Fatal("Copy must own the numeric values")
	}
	if _, ok := c.PatchBranchOutage(n, 0); !ok {
		t.Fatal("patch failed")
	}
	if y.NZv[y.DiagIdx[0]] == c.NZv[c.DiagIdx[0]] {
		t.Fatal("patching the copy must not touch the original")
	}
}
