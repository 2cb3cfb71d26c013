package scopf

import (
	"math"
	"slices"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/opf"
)

func TestSCOPFSecuresCase57(t *testing.T) {
	n := cases.MustLoad("case57")
	res, err := Solve(n, Options{Screen: true})
	if err != nil {
		t.Fatal(err)
	}
	// The security-constrained dispatch must not be cheaper than the
	// economic one, and redispatch must improve post-contingency worst
	// loading whenever the economic dispatch was insecure.
	if res.SecurityPremium < -1e-6 {
		t.Fatalf("negative security premium %v", res.SecurityPremium)
	}
	// The single worst outage may be load-driven (unfixable by
	// preventive dispatch); progress is counted on violations.
	if res.ViolationsBefore > 0 && res.ViolationsAfter >= res.ViolationsBefore {
		t.Fatalf("no improvement: %d -> %d violations", res.ViolationsBefore, res.ViolationsAfter)
	}
	if res.Rounds < 1 || res.Rounds > 6 {
		t.Fatalf("rounds %d", res.Rounds)
	}
	// Base-case feasibility against original ratings must hold.
	if res.Solution.MaxThermalLoading > 100.5 {
		t.Fatalf("secure dispatch violates base ratings: %v%%", res.Solution.MaxThermalLoading)
	}
}

func TestSCOPFImprovesSecurityCase118(t *testing.T) {
	if testing.Short() {
		t.Skip("case118 SCOPF in short mode")
	}
	n := cases.MustLoad("case118")
	res, err := Solve(n, Options{Screen: true, MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	// case118 has deliberately tight corridors: the economic dispatch is
	// N-1 insecure and redispatch must buy real improvement. Some
	// violations are load-driven and unfixable by preventive dispatch,
	// so progress is measured on the violation count, not only the
	// single worst loading.
	if res.ViolationsBefore == 0 {
		t.Skipf("economic dispatch already secure")
	}
	if res.ViolationsAfter >= res.ViolationsBefore {
		t.Fatalf("violations did not decrease: %d -> %d",
			res.ViolationsBefore, res.ViolationsAfter)
	}
	if res.SecurityPremium <= 0 {
		t.Fatalf("security premium %v should be positive when redispatching away from the optimum", res.SecurityPremium)
	}
	if len(res.TightenedBranches) == 0 {
		t.Fatal("no branches tightened despite insecurity")
	}
}

func TestCompareEconomicVsSecure(t *testing.T) {
	n := cases.MustLoad("case57")
	c, err := Compare(n, Options{Screen: true, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Economic == nil || c.Secure == nil {
		t.Fatal("missing comparison sides")
	}
	// With basin anchoring, the secure dispatch can never be cheaper
	// than the economic baseline (the economic solve is re-anchored from
	// the secure point when the nonconvex landscape shifts basins).
	if c.Secure.Solution.ObjectiveCost < c.Economic.ObjectiveCost-1e-6 {
		t.Fatalf("secure cost %v below economic %v", c.Secure.Solution.ObjectiveCost, c.Economic.ObjectiveCost)
	}
	wantPct := 100 * (c.Secure.Solution.ObjectiveCost - c.Economic.ObjectiveCost) / c.Economic.ObjectiveCost
	if diff := c.PremiumPct - wantPct; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("premium pct %v want %v", c.PremiumPct, wantPct)
	}
}

// TestCompareWarmStartPins: every tightening round re-solves warm from
// the previous round's solution, multipliers included. The outcome is the
// one the primal-only warm start reached, pinned here from it: the same
// tightened branches, rounds and Secure flag on case30/57/118, and costs
// within 1e-6 relative (measured: the economic costs bit-identical, the
// secure ones within 1.1e-8).
func TestCompareWarmStartPins(t *testing.T) {
	for _, tc := range []struct {
		name         string
		econ, secure float64
		rounds       int
		tightened    []int
	}{
		{"case30", 8915.034309551622, 9956.317893482714, 3,
			[]int{0, 1, 2, 3, 4, 5, 6, 8, 9, 14, 20, 21, 24, 30, 32, 35, 40}},
		{"case57", 27218.362154382332, 27249.84542605528, 2,
			[]int{0, 24, 25, 27, 28, 31, 36, 38, 39, 40, 43, 46, 50, 51, 57, 61, 63, 65, 66, 68, 74, 77}},
		{"case118", 92720.67956999525, 94284.33630883721, 3,
			[]int{1, 5, 11, 15, 20, 22, 23, 30, 40, 41, 43, 45, 47, 54, 57, 63, 68, 69, 74, 77, 79, 80, 90, 92, 93, 95,
				97, 98, 100, 109, 113, 119, 131, 142, 143, 149, 153, 154, 155, 160, 161, 162, 164, 168, 171, 176}},
	} {
		c, err := Compare(cases.MustLoad(tc.name), Options{Screen: true, MaxRounds: 3})
		if err != nil {
			t.Fatal(err)
		}
		sec := c.Secure
		if sec.Rounds != tc.rounds || sec.Secure || !slices.Equal(sec.TightenedBranches, tc.tightened) {
			t.Errorf("%s: rounds %d, secure %t, tightened %v; want %d, false, %v",
				tc.name, sec.Rounds, sec.Secure, sec.TightenedBranches, tc.rounds, tc.tightened)
		}
		if d := math.Abs(c.Economic.ObjectiveCost-tc.econ) / tc.econ; d > 1e-6 {
			t.Errorf("%s: economic cost %.6f, want %.6f", tc.name, c.Economic.ObjectiveCost, tc.econ)
		}
		if d := math.Abs(sec.Solution.ObjectiveCost-tc.secure) / tc.secure; d > 1e-6 {
			t.Errorf("%s: secure cost %.6f, want %.6f", tc.name, sec.Solution.ObjectiveCost, tc.secure)
		}
	}
}

func TestSCOPFDeterministic(t *testing.T) {
	n := cases.MustLoad("case57")
	a, err := Solve(n, Options{Screen: true, MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(n, Options{Screen: true, MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Solution.ObjectiveCost != b.Solution.ObjectiveCost || a.Rounds != b.Rounds {
		t.Fatal("SCOPF not deterministic")
	}
}

func TestSCOPFReusesKKTPattern(t *testing.T) {
	// Every ACOPF in the SCOPF loop — the economic baseline, each
	// tightening round's re-solve, the backoff retries — runs on the same
	// topology, so one compiled KKT pattern must serve them all: the
	// caller-supplied context records exactly one compilation.
	n := cases.MustLoad("case57")
	ctx := opf.NewContext()
	res, err := Solve(n, Options{Screen: true, MaxRounds: 2, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 {
		t.Fatalf("rounds %d", res.Rounds)
	}
	if got := ctx.Compiles(); got != 1 {
		t.Fatalf("SCOPF loop compiled %d KKT patterns, want 1 (re-solves must reuse the cached pattern)", got)
	}
}

func TestSCOPFInvalidNetwork(t *testing.T) {
	n := cases.MustLoad("case14")
	n.BaseMVA = 0
	if _, err := Solve(n, Options{}); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestApplyDispatchPinsOperatingPoint(t *testing.T) {
	n := cases.MustLoad("case14")
	sol, err := opf.SolveACOPF(n, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	state := applyDispatch(n, sol)
	for g := range state.Gens {
		if state.Gens[g].P != sol.GenP[g] {
			t.Fatalf("gen %d dispatch not applied", g)
		}
	}
	if state.Buses[0].Vm != sol.Voltages.Vm[0] {
		t.Fatal("voltages not applied")
	}
	// Original untouched.
	if n.Gens[0].P == sol.GenP[0] && n.Gens[0].P != 232.4 {
		t.Fatal("original network mutated")
	}
}
