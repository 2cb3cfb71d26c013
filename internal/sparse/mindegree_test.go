package sparse_test

import (
	"math/rand"
	"slices"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// TestBlockMinDegreeSingletonsMatchMinDegree pins the MinDegree fold: with
// every supernode a singleton and no tail the quotient graph IS the
// elimination graph, so BlockMinDegree, MinDegree (now that call) and the
// standalone reference kernel MinDegree used to be must agree exactly — on
// a random matrix and on the non-slack bus graphs of case14–300, which are
// what the power-flow Jacobian's bus-block ordering feeds MinDegree.
func TestBlockMinDegreeSingletonsMatchMinDegree(t *testing.T) {
	mats := map[string]*sparse.CSC{
		"random": sparse.RandomSparse(rand.New(rand.NewSource(3)), 20, 20, 0.15),
	}
	for _, name := range cases.Names() {
		mats[name] = busGraph(cases.MustLoad(name))
	}
	for name, m := range mats {
		_, n := m.Dims()
		super := make([][]int, n)
		for i := range super {
			super[i] = []int{i}
		}
		want := sparse.MinDegreeReference(m)
		if got := sparse.MinDegree(m); !slices.Equal(got, want) {
			t.Fatalf("%s: MinDegree diverged from the reference kernel: %v vs %v", name, got, want)
		}
		if got := sparse.BlockMinDegree(m, super); !slices.Equal(got, want) {
			t.Fatalf("%s: singleton BlockMinDegree diverged from the reference kernel: %v vs %v", name, got, want)
		}
	}
}

// busGraph is the adjacency pattern of n's non-slack buses over the Ybus
// structural nonzeros, numbered in bus order with the slack skipped.
func busGraph(n *model.Network) *sparse.CSC {
	y := model.BuildYbus(n)
	slack := n.SlackBus()
	pos := make([]int, y.N)
	k := 0
	for i := range pos {
		pos[i] = -1
		if i != slack {
			pos[i] = k
			k++
		}
	}
	g := sparse.NewCOO(k, k)
	for _, nz := range y.NZ {
		if i, j := pos[nz[0]], pos[nz[1]]; i >= 0 && j >= 0 {
			g.Add(i, j, 1)
		}
	}
	return g.ToCSC()
}
