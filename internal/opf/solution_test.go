package opf

import (
	"math"
	"strings"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// solvers are the two formulations that run on solveIPM with costScale,
// each solved cold under the given interior-point options.
var solvers = []struct {
	name  string
	solve func(*model.Network, ipmOptions) (*Solution, error)
}{
	{"AC", func(n *model.Network, o ipmOptions) (*Solution, error) { return solveACOPF(n, Options{}, o) }},
	{"DC", solveDCOPF},
}

// TestIPMIterationCounts pins the exact IPM iteration count of every
// standard case, cold, for both formulations. The counts follow from the
// objective scale (costScale) and the IPM path, so a lost scale or a
// drifting step fails here by name.
func TestIPMIterationCounts(t *testing.T) {
	want := map[string]map[string]int{
		"AC": {"case14": 8, "case30": 10, "case57": 10, "case118": 14, "case300": 12},
		"DC": {"case14": 7, "case30": 9, "case57": 7, "case118": 10, "case300": 11},
	}
	for _, s := range solvers {
		for _, name := range []string{"case14", "case30", "case57", "case118", "case300"} {
			sol, err := s.solve(cases.MustLoad(name), ipmOptions{})
			if err != nil {
				t.Fatalf("%s %s: %v", s.name, name, err)
			}
			if w := want[s.name][name]; sol.Iterations != w {
				t.Errorf("%s %s: %d IPM iterations, want %d", s.name, name, sol.Iterations, w)
			}
		}
	}
}

// TestIPMTightTolerances holds the predictor–corrector to the parent's
// reach: AC and DC OPF on case14–300 converge with every tolerance at
// 1e-8, 1e-10 and 1e-12. It is the complementarity floor that makes this
// pass: with the target following σμ down unbounded, μ reaches about
// 1e-22 and the KKT factor hits a singular pivot at 1e-10 and tighter.
func TestIPMTightTolerances(t *testing.T) {
	for _, tol := range []float64{1e-8, 1e-10, 1e-12} {
		for _, s := range solvers {
			for _, name := range []string{"case14", "case30", "case57", "case118", "case300"} {
				sol, err := s.solve(cases.MustLoad(name), ipmOptions{FeasTol: tol, GradTol: tol, CompTol: tol, CostTol: tol})
				if err != nil {
					t.Errorf("%s %s at %g: %v", s.name, name, tol, err)
					continue
				}
				if !sol.Solved {
					t.Errorf("%s %s at %g: not solved: %s", s.name, name, tol, sol.ConvergenceMessage)
				}
			}
		}
	}
}

// TestLMPEqualsMarginalCost checks the unscaling of the IPM's outputs
// against a quantity the IPM never sees. At an optimum every generator
// strictly inside its P limits is marginal, so stationarity in Pg makes
// the LMP at its bus equal its marginal cost; and the objective is the
// dispatch's cost. A λ or F left in costScale units is off by 1e4.
func TestLMPEqualsMarginalCost(t *testing.T) {
	for _, s := range solvers {
		for _, name := range []string{"case14", "case30", "case57", "case118", "case300"} {
			n := cases.MustLoad(name)
			sol, err := s.solve(n, ipmOptions{})
			if err != nil {
				t.Fatalf("%s %s: %v", s.name, name, err)
			}
			var cost, worst float64
			marginal := 0
			for gi, g := range n.Gens {
				if !g.InService {
					continue
				}
				pg := sol.GenP[gi]
				cost += g.Cost.At(pg)
				if pg < g.PMin+1 || pg > g.PMax-1 {
					continue
				}
				marginal++
				d := math.Abs(sol.LMP[g.Bus] - g.Cost.Marginal(pg))
				worst = math.Max(worst, d)
				if d > 1e-2 {
					t.Errorf("%s %s gen %d: LMP %.6f $/MWh, marginal cost %.6f", s.name, name, gi, sol.LMP[g.Bus], g.Cost.Marginal(pg))
				}
			}
			if marginal == 0 {
				t.Errorf("%s %s: no generator strictly inside its limits", s.name, name)
			}
			if math.Abs(sol.ObjectiveCost-cost) > 1e-9*cost {
				t.Errorf("%s %s: ObjectiveCost %.9f, dispatch cost %.9f", s.name, name, sol.ObjectiveCost, cost)
			}
			t.Logf("%s %s: %d marginal units, worst |LMP − marginal cost| %.1e $/MWh", s.name, name, marginal, worst)
		}
	}
}

// TestAssessQualityUsesBusVoltageBands is the regression test for the
// hardcoded 0.94/1.06 security-headroom band: a case whose buses allow a
// wider band must be scored against its own VMin/VMax, not the nominal
// ones. The same 1.05 pu flat profile is near-limit under the default
// case30 band (0.01 pu headroom to 1.06) but comfortably interior once
// every bus allows [0.90, 1.10] (0.05 pu headroom).
func TestAssessQualityUsesBusVoltageBands(t *testing.T) {
	n := cases.MustLoad("case30")
	mk := func() *Solution {
		vm := make([]float64, len(n.Buses))
		va := make([]float64, len(n.Buses))
		for i := range vm {
			vm[i] = 1.05
		}
		return &Solution{
			Solved:        true,
			Voltages:      powerflow.VoltageProfile{Vm: vm, Va: va},
			MinVoltagePU:  1.05,
			MaxVoltagePU:  1.05,
			MaxMismatchPU: 1e-6,
		}
	}

	tight := AssessQuality(n, mk())
	if h := tight.DetailedMetrics["voltage_headroom_pu"]; math.Abs(h-0.01) > 1e-9 {
		t.Fatalf("default-band headroom %v, want 0.01", h)
	}

	wide := n.Clone()
	for i := range wide.Buses {
		wide.Buses[i].VMin, wide.Buses[i].VMax = 0.90, 1.10
	}
	roomy := AssessQuality(wide, mk())
	if h := roomy.DetailedMetrics["voltage_headroom_pu"]; math.Abs(h-0.05) > 1e-9 {
		t.Fatalf("wide-band headroom %v, want 0.05 (per-bus limits not used)", h)
	}
	if roomy.SystemSecurity <= tight.SystemSecurity {
		t.Fatalf("wider band must score safer: %v <= %v", roomy.SystemSecurity, tight.SystemSecurity)
	}
	for _, r := range roomy.Recommendations {
		if strings.Contains(r, "reactive support") {
			t.Fatalf("wide-band profile flagged as near-limit: %q", r)
		}
	}

	// Asymmetric per-bus limits: the binding bus decides.
	asym := n.Clone()
	for i := range asym.Buses {
		asym.Buses[i].VMin, asym.Buses[i].VMax = 0.90, 1.10
	}
	asym.Buses[3].VMax = 1.055 // 0.005 pu headroom at bus 3 only
	pinched := AssessQuality(asym, mk())
	if h := pinched.DetailedMetrics["voltage_headroom_pu"]; math.Abs(h-0.005) > 1e-9 {
		t.Fatalf("asymmetric-band headroom %v, want 0.005 from the binding bus", h)
	}
}
