package model

import (
	"math/cmplx"
	"sort"
)

// Ybus is the nodal admittance matrix together with the per-branch
// two-port admittances needed for flow calculations:
//
//	[If]   [Yff Yft] [Vf]
//	[It] = [Ytf Ytt] [Vt]
//
// The matrix is stored sparsely: NZ lists the structural nonzero
// coordinates in row-major sorted order and NZv holds the aligned values,
// so peak memory is O(nnz) rather than O(nb²) and hot loops (injection
// evaluation, Jacobian assembly) iterate entries directly:
//
//	for p, nz := range y.NZ {
//		i, j, yij := nz[0], nz[1], y.NZv[p]
//		...
//	}
//
// RowPtr gives per-row spans for row-wise access and DiagIdx gives O(1)
// access to diagonal entries (structurally always present).
type Ybus struct {
	N int
	// NZ lists the structural nonzero coordinates (i, j), diagonal
	// included, each exactly once, sorted row-major.
	NZ [][2]int
	// NZv holds the admittance values aligned with NZ.
	NZv []complex128
	// RowPtr has length N+1; row i's entries are NZ[RowPtr[i]:RowPtr[i+1]].
	RowPtr []int
	// DiagIdx[i] is the position of (i, i) in NZ.
	DiagIdx []int
	// Yff, Yft, Ytf, Ytt are indexed by branch position in the originating
	// network's Branches slice; zero for out-of-service branches.
	Yff, Yft, Ytf, Ytt []complex128
}

// At returns Y[i,j] by binary search within row i. Hot loops should
// iterate NZ/NZv or use Diag instead.
func (y *Ybus) At(i, j int) complex128 {
	lo, hi := y.RowPtr[i], y.RowPtr[i+1]
	k := lo + sort.Search(hi-lo, func(k int) bool { return y.NZ[lo+k][1] >= j })
	if k < hi && y.NZ[k][1] == j {
		return y.NZv[k]
	}
	return 0
}

// Diag returns Y[i,i] in O(1).
func (y *Ybus) Diag(i int) complex128 { return y.NZv[y.DiagIdx[i]] }

// yentry is a COO triplet with a packed (row, col) sort key.
type yentry struct {
	key uint64 // i<<32 | j
	v   complex128
}

// BuildYbus assembles the admittance matrix of the network's in-service
// branches and bus shunts, following the standard pi-model with an ideal
// tap/phase transformer at the from end (MATPOWER convention). The sparse
// pattern is built by sort-merge of the at most nb+4·nbr contributions —
// no dense scan, no map.
func BuildYbus(n *Network) *Ybus {
	nb := len(n.Buses)
	nbr := len(n.Branches)
	y := &Ybus{
		N:   nb,
		Yff: make([]complex128, nbr),
		Yft: make([]complex128, nbr),
		Ytf: make([]complex128, nbr),
		Ytt: make([]complex128, nbr),
	}
	ent := make([]yentry, 0, nb+4*nbr)
	add := func(i, j int, v complex128) {
		ent = append(ent, yentry{key: uint64(i)<<32 | uint64(j), v: v})
	}
	for i, b := range n.Buses {
		// Bus shunts are specified as MW / MVAr at 1.0 p.u. voltage. The
		// entry is added even when zero so every diagonal is structural.
		add(i, i, complex(b.GS/n.BaseMVA, b.BS/n.BaseMVA))
	}
	for k, br := range n.Branches {
		if !br.InService {
			continue
		}
		ys := 1 / complex(br.R, br.X)
		bc := complex(0, br.B/2)
		tap := br.Tap
		if tap == 0 {
			tap = 1
		}
		t := cmplx.Rect(tap, br.Shift)
		y.Yff[k] = (ys + bc) / complex(tap*tap, 0)
		y.Yft[k] = -ys / cmplx.Conj(t)
		y.Ytf[k] = -ys / t
		y.Ytt[k] = ys + bc
		add(br.From, br.From, y.Yff[k])
		add(br.From, br.To, y.Yft[k])
		add(br.To, br.From, y.Ytf[k])
		add(br.To, br.To, y.Ytt[k])
	}
	sort.Slice(ent, func(a, b int) bool { return ent[a].key < ent[b].key })

	// Merge duplicates into the aligned NZ/NZv slices.
	y.NZ = make([][2]int, 0, len(ent))
	y.NZv = make([]complex128, 0, len(ent))
	for p := 0; p < len(ent); {
		key := ent[p].key
		v := ent[p].v
		p++
		for p < len(ent) && ent[p].key == key {
			v += ent[p].v
			p++
		}
		y.NZ = append(y.NZ, [2]int{int(key >> 32), int(key & 0xffffffff)})
		y.NZv = append(y.NZv, v)
	}

	y.RowPtr = make([]int, nb+1)
	y.DiagIdx = make([]int, nb)
	row := 0
	for p, nz := range y.NZ {
		for row <= nz[0] {
			y.RowPtr[row] = p
			row++
		}
		if nz[0] == nz[1] {
			y.DiagIdx[nz[0]] = p
		}
	}
	for row <= nb {
		y.RowPtr[row] = len(y.NZ)
		row++
	}
	return y
}

// BranchFlowsInto fills sf and st (both length len(n.Branches)) in one
// pass over the branch list with the complex power in MVA entering each
// branch at its from and to ends, given bus voltages in rectangular p.u.
// form. Out-of-service branches get zeros. Sweep tails and result
// assembly use this with caller-owned scratch so per-outage flow
// evaluation allocates nothing.
func (y *Ybus) BranchFlowsInto(n *Network, v []complex128, sf, st []complex128) {
	base := complex(n.BaseMVA, 0)
	for k := range n.Branches {
		br := &n.Branches[k]
		if !br.InService {
			sf[k], st[k] = 0, 0
			continue
		}
		vf, vt := v[br.From], v[br.To]
		ifr := y.Yff[k]*vf + y.Yft[k]*vt
		ito := y.Ytf[k]*vf + y.Ytt[k]*vt
		sf[k] = vf * cmplx.Conj(ifr) * base
		st[k] = vt * cmplx.Conj(ito) * base
	}
}

// Injections returns the complex nodal power injections S = V ∘ conj(Y·V)
// in per-unit for the bus voltage vector v.
func (y *Ybus) Injections(v []complex128) []complex128 {
	s := make([]complex128, y.N)
	y.InjectionsInto(s, v)
	return s
}

// InjectionsInto is the allocation-free form of Injections, overwriting s
// (length N) in place.
func (y *Ybus) InjectionsInto(s, v []complex128) {
	for i := 0; i < y.N; i++ {
		var acc complex128
		for p := y.RowPtr[i]; p < y.RowPtr[i+1]; p++ {
			acc += y.NZv[p] * v[y.NZ[p][1]]
		}
		s[i] = v[i] * cmplx.Conj(acc)
	}
}

// VoltageVector builds the rectangular complex voltage vector from polar
// magnitude and angle slices.
func VoltageVector(vm, va []float64) []complex128 {
	v := make([]complex128, len(vm))
	VoltageVectorInto(v, vm, va)
	return v
}

// VoltageVectorInto is the allocation-free form of VoltageVector.
func VoltageVectorInto(v []complex128, vm, va []float64) {
	for i := range vm {
		v[i] = cmplx.Rect(vm[i], va[i])
	}
}
