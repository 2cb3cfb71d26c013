package sensitivity

import (
	"math"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/opf"
)

func TestLMPMatchesFiniteDifference(t *testing.T) {
	// The flagship OPF correctness property: the LMP at a bus must
	// predict the cost of serving one more MW there. Verified by exact
	// warm-started re-solves on case14.
	n := cases.MustLoad("case14")
	base, err := opf.SolveACOPF(n, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	impacts, err := LoadImpacts(n, base, []int{9, 14, 4}, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range impacts {
		if !im.Solved {
			t.Fatalf("bus %d: re-solve failed", im.BusID)
		}
		relErr := math.Abs(im.LMPPredicted-im.CostDelta) / math.Abs(im.CostDelta)
		if relErr > 0.05 {
			t.Errorf("bus %d: LMP predicts %+.3f $/h, exact %+.3f $/h (rel err %.3f)",
				im.BusID, im.LMPPredicted, im.CostDelta, relErr)
		}
	}
	mare, solvedRows := Consistency(impacts)
	if solvedRows != 3 {
		t.Fatalf("solved rows %d", solvedRows)
	}
	if mare > 0.05 {
		t.Fatalf("mean abs rel err %v too large: LMPs inconsistent with re-solves", mare)
	}
}

func TestLoadImpactsCostMonotonicity(t *testing.T) {
	n := cases.MustLoad("case30")
	base, err := opf.SolveACOPF(n, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	impacts, err := LoadImpacts(n, base, []int{7, 21, 30}, 5.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range impacts {
		if im.Solved && im.CostDelta <= 0 {
			t.Errorf("bus %d: adding 5 MW decreased cost by %v", im.BusID, -im.CostDelta)
		}
	}
}

// TestLoadImpactsWarmMatchesPrimalStart: the impact re-solves start from
// the base solution with its multipliers. Every row of every load bus of
// case30/57/118 (1 MW) matches the row the primal-only start gives: the
// same Solved flag and LMP prediction, voltage and loading within 1e-6
// relative, and the cost delta within 1e-8 of the objective cost it is a
// difference of (measured 1.1e-9; that is up to 4e-6 of the delta itself).
func TestLoadImpactsWarmMatchesPrimalStart(t *testing.T) {
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-12) }
	for _, name := range []string{"case30", "case57", "case118"} {
		n := cases.MustLoad(name)
		base, err := opf.SolveACOPF(n, opf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		primal := *base
		primal.Multipliers = nil
		var ids []int
		for _, l := range n.Loads {
			if l.P > 0 {
				ids = append(ids, n.Buses[l.Bus].ID)
			}
		}
		warm, err := LoadImpacts(n, base, ids, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := LoadImpacts(n, &primal, ids, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range warm {
			p := want[i]
			if w.Solved != p.Solved || w.LMPPredicted != p.LMPPredicted ||
				rel(w.MinVoltagePU, p.MinVoltagePU) > 1e-6 || rel(w.MaxLoadingPct, p.MaxLoadingPct) > 1e-6 ||
				math.Abs(w.CostDelta-p.CostDelta) > 1e-8*base.ObjectiveCost {
				t.Errorf("%s bus %d: warm %+v, primal-only start %+v", name, w.BusID, w, p)
			}
		}
	}
}

func TestLoadImpactsErrors(t *testing.T) {
	n := cases.MustLoad("case14")
	base, _ := opf.SolveACOPF(n, opf.Options{})
	if _, err := LoadImpacts(n, nil, []int{1}, 1, nil); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := LoadImpacts(n, base, []int{1}, 0, nil); err == nil {
		t.Fatal("zero delta accepted")
	}
	if _, err := LoadImpacts(n, base, []int{999}, 1, nil); err == nil {
		t.Fatal("unknown bus accepted")
	}
	unsolved := &opf.Solution{Solved: false}
	if _, err := LoadImpacts(n, unsolved, []int{1}, 1, nil); err == nil {
		t.Fatal("unsolved base accepted")
	}
}

func TestPriceMapSorted(t *testing.T) {
	n := cases.MustLoad("case30")
	base, err := opf.SolveACOPF(n, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := PriceMap(n, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("rows %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].LMP > rows[i-1].LMP {
			t.Fatal("price map not sorted descending")
		}
	}
	if _, err := PriceMap(n, &opf.Solution{}); err == nil {
		t.Fatal("unsolved base accepted")
	}
}

func TestConsistencyEmpty(t *testing.T) {
	mare, solved := Consistency(nil)
	if mare != 0 || solved != 0 {
		t.Fatal("empty consistency should be zero")
	}
	mare, solved = Consistency([]Impact{{Solved: false}})
	if solved != 0 {
		t.Fatal("unsolved rows counted")
	}
	_ = mare
}
