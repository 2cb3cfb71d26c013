package cases

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// table2 is the paper's Table 2, the ground truth for component counts.
//
// One deliberate deviation: the paper lists 41 AC lines + 4 transformers
// for IEEE 30, but the authentic system has 41 branches in total (37 lines
// + 4 transformers); every other row of the paper's table counts lines
// exclusive of transformers. We ship the authentic data and record the
// discrepancy here and in EXPERIMENTS.md.
var table2 = []model.Summary{
	{Name: "case14", Buses: 14, Gens: 5, Loads: 11, ACLines: 17, Transformers: 3},
	{Name: "case30", Buses: 30, Gens: 6, Loads: 21, ACLines: 37, Transformers: 4},
	{Name: "case57", Buses: 57, Gens: 7, Loads: 42, ACLines: 63, Transformers: 17},
	{Name: "case118", Buses: 118, Gens: 54, Loads: 99, ACLines: 175, Transformers: 11},
	{Name: "case300", Buses: 300, Gens: 68, Loads: 193, ACLines: 283, Transformers: 128},
}

func TestTable2Counts(t *testing.T) {
	for _, want := range table2 {
		n, err := Load(want.Name)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if got := n.Summarize(); got != want {
			t.Errorf("%s: summary %+v, want %+v", want.Name, got, want)
		}
	}
}

func TestSummariesMatchesTable2(t *testing.T) {
	got, err := Summaries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(table2) {
		t.Fatalf("got %d rows", len(got))
	}
	for i := range got {
		if got[i] != table2[i] {
			t.Errorf("row %d: %+v want %+v", i, got[i], table2[i])
		}
	}
}

func TestAllCasesValidate(t *testing.T) {
	for _, name := range Names() {
		n := MustLoad(name)
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAllCasesPowerFlowConverges(t *testing.T) {
	for _, name := range Names() {
		n := MustLoad(name)
		res, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !res.Converged {
			t.Errorf("%s: power flow did not converge", name)
		}
		if res.MinVm < 0.85 || res.MaxVm > 1.15 {
			t.Errorf("%s: voltage envelope [%v, %v] implausible", name, res.MinVm, res.MaxVm)
		}
	}
}

func TestAllCasesFlatStartConverges(t *testing.T) {
	for _, name := range Names() {
		n := MustLoad(name)
		if _, err := powerflow.Solve(n, powerflow.Options{FlatStart: true, EnforceQLimits: true}); err != nil {
			t.Errorf("%s flat start: %v", name, err)
		}
	}
}

func TestCanonicalNames(t *testing.T) {
	for in, want := range map[string]string{
		"case14": "case14", "IEEE 118": "case118", "118": "case118",
		"ieee-300 system": "case300", "Case 57": "case57", "30": "case30",
		"case9": "", "nonsense": "",
	} {
		if got := Canonical(in); got != want {
			t.Errorf("Canonical(%q) = %q want %q", in, got, want)
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("case9999"); err == nil {
		t.Fatal("expected error for unknown case")
	}
}

func TestLoadReturnsFreshCopies(t *testing.T) {
	a := MustLoad("case118")
	b := MustLoad("case118")
	a.Loads[0].P += 500
	if b.Loads[0].P == a.Loads[0].P {
		t.Fatal("Load returned shared storage")
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := MustLoad("case57")
	b := MustLoad("case57")
	if len(a.Branches) != len(b.Branches) {
		t.Fatal("branch counts differ across loads")
	}
	for i := range a.Branches {
		if a.Branches[i] != b.Branches[i] {
			t.Fatalf("branch %d differs: %+v vs %+v", i, a.Branches[i], b.Branches[i])
		}
	}
	for i := range a.Gens {
		if a.Gens[i] != b.Gens[i] {
			t.Fatalf("gen %d differs", i)
		}
	}
}

func TestSyntheticCapacityMargin(t *testing.T) {
	for _, name := range []string{"case57", "case118", "case300"} {
		n := MustLoad(name)
		loadP, _ := n.TotalLoad()
		cap := n.TotalGenCapacity()
		if cap < 1.2*loadP {
			t.Errorf("%s: capacity %v too tight for load %v", name, cap, loadP)
		}
		if cap > 3*loadP {
			t.Errorf("%s: capacity %v implausibly large for load %v", name, cap, loadP)
		}
	}
}

func TestSyntheticStoredProfileIsSolved(t *testing.T) {
	// The shipped operating point must satisfy the power balance closely:
	// starting NR from it should converge in very few iterations.
	for _, name := range []string{"case57", "case118", "case300"} {
		n := MustLoad(name)
		res, err := powerflow.Solve(n, powerflow.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Iterations > 3 {
			t.Errorf("%s: stored profile needed %d NR iterations, want <=3", name, res.Iterations)
		}
	}
}

func TestSyntheticRatingsCoverBaseFlows(t *testing.T) {
	for _, name := range []string{"case57", "case118", "case300"} {
		n := MustLoad(name)
		res, err := powerflow.Solve(n, powerflow.Options{})
		if err != nil {
			t.Fatal(err)
		}
		over := 0
		for k, br := range n.Branches {
			if br.RateMVA <= 0 {
				t.Fatalf("%s: branch %d has no rating", name, k)
			}
			if res.Flows[k].LoadingPct > 100 {
				over++
			}
		}
		if over > 0 {
			t.Errorf("%s: %d branches overloaded in base case", name, over)
		}
	}
}

func TestCase14KnownStructure(t *testing.T) {
	n := Case14()
	// Spot checks against the published MATPOWER data.
	if n.Buses[8].BS != 19 {
		t.Errorf("bus 9 shunt BS = %v, want 19 MVAr", n.Buses[8].BS)
	}
	if n.Gens[0].PMax != 332.4 {
		t.Errorf("slack PMax = %v, want 332.4", n.Gens[0].PMax)
	}
	xf := 0
	for _, b := range n.Branches {
		if b.IsTransformer {
			xf++
			if b.Tap < 0.9 || b.Tap > 1.0 {
				t.Errorf("transformer tap %v outside published range", b.Tap)
			}
		}
	}
	if xf != 3 {
		t.Errorf("transformers = %d, want 3", xf)
	}
	p, q := n.TotalLoad()
	if math.Abs(p-259.0) > 1e-9 {
		t.Errorf("total P load %v, want 259.0 MW", p)
	}
	if math.Abs(q-73.5) > 1e-9 {
		t.Errorf("total Q load %v, want 73.5 MVAr", q)
	}
}

func TestCase30KnownStructure(t *testing.T) {
	n := Case30()
	p, _ := n.TotalLoad()
	if math.Abs(p-283.4) > 1e-9 {
		t.Errorf("total P load %v, want 283.4 MW", p)
	}
	if n.BusByID(10) < 0 || n.Buses[n.BusByID(10)].BS != 19 {
		t.Error("bus 10 shunt missing")
	}
	rated := 0
	for _, b := range n.Branches {
		if b.RateMVA > 0 {
			rated++
		}
	}
	if rated != len(n.Branches) {
		t.Errorf("only %d/%d branches rated", rated, len(n.Branches))
	}
}

func TestSortedBusIDsHelper(t *testing.T) {
	ids := sortedBusIDs(Case14())
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("bus ids not strictly increasing")
		}
	}
	if _, err := busIndexByID(Case14()); err != nil {
		t.Fatal(err)
	}
}

// busIndexByID builds internal indices from one-based external IDs,
// failing loudly on gaps so embedded data errors cannot pass silently.
func busIndexByID(n *model.Network) (map[int]int, error) {
	m := make(map[int]int, len(n.Buses))
	for i, b := range n.Buses {
		if _, dup := m[b.ID]; dup {
			return nil, fmt.Errorf("cases: duplicate bus id %d", b.ID)
		}
		m[b.ID] = i
	}
	return m, nil
}

// sortedBusIDs lists a case's bus IDs in increasing order.
func sortedBusIDs(n *model.Network) []int {
	ids := make([]int, len(n.Buses))
	for i, b := range n.Buses {
		ids[i] = b.ID
	}
	sort.Ints(ids)
	return ids
}
