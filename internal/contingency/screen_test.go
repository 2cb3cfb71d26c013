package contingency

import (
	"testing"

	"gridmind/internal/cases"
)

func TestDCScreeningReducesACWork(t *testing.T) {
	n := cases.MustLoad("case118")
	base := solveBase(t, n)
	rs, err := Analyze(n, base, Options{DCScreen: true})
	if err != nil {
		t.Fatal(err)
	}
	// A meaningful fraction should screen out on a realistic case.
	if rs.Screened < len(rs.Outages)/10 {
		t.Fatalf("screened only %d of %d", rs.Screened, len(rs.Outages))
	}
}

func TestDCScreeningRankingStillFindsCritical(t *testing.T) {
	// Top critical outages must be identical with and without screening
	// (screened-out outages are by construction far from critical).
	n := cases.MustLoad("case118")
	base := solveBase(t, n)
	full, err := Analyze(n, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scr, err := Analyze(n, base, Options{DCScreen: true})
	if err != nil {
		t.Fatal(err)
	}
	a := full.CriticalBranches(5, Composite)
	b := scr.CriticalBranches(5, Composite)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("top-5 differ with screening: %v vs %v", a, b)
		}
	}
}
