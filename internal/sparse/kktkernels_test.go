package sparse_test

import (
	"math"
	"math/rand"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// TestLDLKernelsBitIdenticalOnACKKT pins LDL.Factor, LDL.SolveInto and
// CSC.MulVecInto bit for bit to their reference bodies (reference_test.go)
// on the reduced KKT pattern of the AC OPF of every standard case, under
// the bus-supernode order and the ±1e-8 shift the interior point factors
// it with. The values are synthetic: a diagonally dominant primal block
// and a unit-scale border with a zero diagonal, so the shifted matrix is
// quasi-definite. The stored entry counts equal the KKT slot counts
// internal/opf pins in TestKKTEmissionCounts. CheckLDLQuadEdges then
// drives the quad paths through exact zeros, stored zeros and singular
// pivots on the same matrices.
func TestLDLKernelsBitIdenticalOnACKKT(t *testing.T) {
	slots := map[string]int{"case14": 709, "case30": 1443, "case57": 2763, "case118": 6443, "case300": 14475}
	rng := rand.New(rand.NewSource(37))
	for _, name := range cases.Names() {
		a, perm, shift := acKKT(cases.MustLoad(name))
		if want := slots[name]; a.NNZ() != want {
			t.Errorf("%s: AC KKT pattern has %d entries, want %d", name, a.NNZ(), want)
		}
		_, n := a.Dims()
		b := make([]float64, n)
		for i := range b {
			if rng.Float64() < 0.67 {
				b[i] = rng.NormFloat64()
			}
		}
		if err := sparse.CheckLDLKernelsMatchReference(t, name, a, perm, shift, b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sparse.CheckLDLQuadEdges(t, name, a, perm, shift)
	}
}

// TestACKKTQuads pins the structure the LDLᵀ kernels' speed rests on: the
// bus-supernode order makes each bus's four KKT columns (Va, Vm and its P
// and Q balance rows) one quad, on every standard case, and ends in a
// dense trailing supernode of the widths pinned here. An ordering change
// that quietly sends the interior point back to one column at a time
// fails here.
func TestACKKTQuads(t *testing.T) {
	tails := map[string]int{"case14": 12, "case30": 16, "case57": 36, "case118": 60, "case300": 120}
	for _, name := range cases.Names() {
		n := cases.MustLoad(name)
		a, perm, shift := acKKT(n)
		f, err := sparse.NewLDL(a, perm, shift)
		if err != nil {
			t.Fatal(err)
		}
		if quads, tail := f.QuadStats(); quads != len(n.Buses) || tail != tails[name] {
			t.Errorf("%s: %d quads and a %d-column trailing supernode, want %d (one per bus) and %d",
				name, quads, tail, len(n.Buses), tails[name])
		}
	}
}

// acKKT builds the reduced KKT matrix of n's AC OPF with internal/opf's
// layout — x = [Va ; Vm ; Pg ; Qg], then the P and Q balance rows and the
// slack-angle pin — together with its bus-supernode elimination order and
// the ±1e-8 pivot shift. The primal block couples (Va, Vm) of every Ybus
// structural pair; every unit's Pg and Qg carry a diagonal; each balance
// row touches its bus's Ybus row and its units.
func acKKT(n *model.Network) (*sparse.CSC, []int, []float64) {
	y := model.BuildYbus(n)
	nb := len(n.Buses)
	var gens []int // bus of each in-service unit
	for _, g := range n.Gens {
		if g.InService {
			gens = append(gens, g.Bus)
		}
	}
	ng := len(gens)
	nx := 2*nb + 2*ng
	dim := nx + 2*nb + 1
	coo := sparse.NewCOO(dim, dim)
	sym := func(i, j int) {
		coo.Add(i, j, 1)
		if i != j {
			coo.Add(j, i, 1)
		}
	}
	for _, nz := range y.NZ {
		i, k := nz[0], nz[1]
		for _, a := range []int{i, nb + i} {
			for _, c := range []int{k, nb + k} {
				coo.Add(a, c, 1)
			}
		}
		sym(nx+i, k)
		sym(nx+i, nb+k)
		sym(nx+nb+i, k)
		sym(nx+nb+i, nb+k)
	}
	for g, bus := range gens {
		sym(2*nb+g, 2*nb+g)
		sym(2*nb+ng+g, 2*nb+ng+g)
		sym(nx+bus, 2*nb+g)
		sym(nx+nb+bus, 2*nb+ng+g)
	}
	for r := nx; r < dim; r++ {
		sym(r, r)
	}
	sym(dim-1, n.SlackBus())
	a := coo.ToCSC()

	// Values: a symmetric function of the coordinate off the diagonal, a
	// dominant primal diagonal, and zero on the border's diagonal.
	val := a.Values()
	rowSum := make([]float64, dim)
	p := 0
	for j := 0; j < dim; j++ {
		a.ColView(j, func(i int, _ float64) {
			v := 0.0
			if i != j {
				v = math.Sin(float64(i*j) + 0.5*float64(i+j))
			}
			val[p] = v
			rowSum[i] += math.Abs(v)
			p++
		})
	}
	p = 0
	for j := 0; j < dim; j++ {
		a.ColView(j, func(i int, _ float64) {
			if i == j && j < nx {
				val[p] = 1 + rowSum[j]
			}
			p++
		})
	}

	super := make([][]int, 0, nb+2*ng+1)
	for b := 0; b < nb; b++ {
		super = append(super, []int{b, nb + b, nx + b, nx + nb + b})
	}
	for g := 0; g < ng; g++ {
		super = append(super, []int{2*nb + g}, []int{2*nb + ng + g})
	}
	super = append(super, []int{dim - 1})
	shift := make([]float64, dim)
	for j := range shift {
		shift[j] = 1e-8
		if j >= nx {
			shift[j] = -1e-8
		}
	}
	return a, sparse.BlockMinDegree(a, super), shift
}

// BenchmarkLDLFactorACKKT times one LDL.Factor of the reduced AC KKT
// pattern (acKKT) of case118 and case300 under its bus-supernode order.
func BenchmarkLDLFactorACKKT(b *testing.B) {
	for _, name := range []string{"case118", "case300"} {
		b.Run(name, func(b *testing.B) {
			a, perm, shift := acKKT(cases.MustLoad(name))
			f, err := sparse.NewLDL(a, perm, shift)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if err := f.Factor(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLDLSolveACKKT times one LDL.SolveInto on the factor of
// BenchmarkLDLFactorACKKT, with a dense right-hand side.
func BenchmarkLDLSolveACKKT(b *testing.B) {
	for _, name := range []string{"case118", "case300"} {
		b.Run(name, func(b *testing.B) {
			a, perm, shift := acKKT(cases.MustLoad(name))
			f, err := sparse.NewLDL(a, perm, shift)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Factor(a); err != nil {
				b.Fatal(err)
			}
			_, n := a.Dims()
			rhs, x, work := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range rhs {
				rhs[i] = math.Sin(float64(i) + 1)
			}
			b.ReportAllocs()
			for b.Loop() {
				if err := f.SolveInto(x, rhs, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
