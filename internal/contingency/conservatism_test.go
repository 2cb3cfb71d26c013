package contingency_test

import (
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/powerflow"
)

// TestDCScreeningIsConservative: no certificate may hide what the exact
// study finds. Each row runs the N-1 sweep with its DC screen on and off;
// a certified outage must show no AC violation in the exact run. The
// screen must certify something somewhere, so the check cannot pass
// vacuously (case30 certifies nothing: its base already runs a branch at
// 134 %). The N-2 sweep never screens. The cascade screen's contract is
// checked next to the cascade code, by scenario's
// TestCascadeScreenConservatism.
func TestDCScreeningIsConservative(t *testing.T) {
	var certified int
	for _, name := range []string{"case30", "case57", "case118"} {
		t.Run("n1_"+name, func(t *testing.T) {
			n := cases.MustLoad(name)
			base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
			if err != nil || !base.Converged {
				t.Fatalf("%s base: %v", name, err)
			}
			exact, err := contingency.Analyze(n, base, contingency.Options{})
			if err != nil {
				t.Fatal(err)
			}
			screened, err := contingency.Analyze(n, base, contingency.Options{DCScreen: true})
			if err != nil {
				t.Fatal(err)
			}
			var certs int
			for i := range screened.Outages {
				if screened.Outages[i].Algorithm != contingency.ScreenedAlgorithm {
					continue
				}
				certs++
				if e := &exact.Outages[i]; !e.Converged || e.Islanded || len(e.Overloads) > 0 || len(e.VoltViols) > 0 {
					t.Errorf("outage %d (branch %d): certified, but the exact study finds an AC violation", i, e.Branch)
				}
			}
			certified += certs
			t.Logf("%d certified", certs)
		})
	}
	if certified == 0 {
		t.Error("the N-1 screen certified nothing on any row; its conservatism check has no teeth")
	}
}
