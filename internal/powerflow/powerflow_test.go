package powerflow

import (
	"math"
	"testing"

	"gridmind/internal/model"
)

// twoBus returns slack --(r=0.01, x=0.1)-- PQ load network.
func twoBus(loadMW, loadMVAr float64) *model.Network {
	return &model.Network{
		Name:    "two-bus",
		BaseMVA: 100,
		Buses: []model.Bus{
			{ID: 1, Type: model.Slack, Vm: 1.0, VMin: 0.9, VMax: 1.1, BaseKV: 138},
			{ID: 2, Type: model.PQ, Vm: 1.0, VMin: 0.9, VMax: 1.1, BaseKV: 138},
		},
		Loads: []model.Load{{Bus: 1, P: loadMW, Q: loadMVAr, InService: true}},
		Gens: []model.Generator{{
			Bus: 0, P: 0, PMin: 0, PMax: 500, QMin: -300, QMax: 300,
			VSetpoint: 1.0, InService: true,
		}},
		Branches: []model.Branch{{From: 0, To: 1, R: 0.01, X: 0.1, InService: true}},
	}
}

// threeBus has a slack, a PV generator bus and a PQ load bus in a triangle.
func threeBus() *model.Network {
	return &model.Network{
		Name:    "three-bus",
		BaseMVA: 100,
		Buses: []model.Bus{
			{ID: 1, Type: model.Slack, Vm: 1.04, VMin: 0.9, VMax: 1.1, BaseKV: 138},
			{ID: 2, Type: model.PV, Vm: 1.02, VMin: 0.9, VMax: 1.1, BaseKV: 138},
			{ID: 3, Type: model.PQ, Vm: 1.0, VMin: 0.9, VMax: 1.1, BaseKV: 138},
		},
		Loads: []model.Load{{Bus: 2, P: 90, Q: 30, InService: true}},
		Gens: []model.Generator{
			{Bus: 0, P: 0, PMin: 0, PMax: 300, QMin: -300, QMax: 300, VSetpoint: 1.04, InService: true},
			{Bus: 1, P: 40, PMin: 0, PMax: 200, QMin: -100, QMax: 100, VSetpoint: 1.02, InService: true},
		},
		Branches: []model.Branch{
			{From: 0, To: 1, R: 0.02, X: 0.12, B: 0.02, InService: true},
			{From: 1, To: 2, R: 0.03, X: 0.18, B: 0.02, InService: true},
			{From: 0, To: 2, R: 0.025, X: 0.15, B: 0.02, InService: true},
		},
	}
}

func maxMismatch(n *model.Network, prof *VoltageProfile) float64 {
	// Only constrained components count: P at non-slack, Q at PQ buses.
	mis := Mismatch(n, prof)
	c, _ := classify(n)
	isPQ := make(map[int]bool)
	for _, i := range c.pq {
		isPQ[i] = true
	}
	var mx float64
	for i := range mis {
		if i == c.slack {
			continue
		}
		if a := math.Abs(real(mis[i])); a > mx {
			mx = a
		}
		if isPQ[i] {
			if a := math.Abs(imag(mis[i])); a > mx {
				mx = a
			}
		}
	}
	return mx
}

func TestNewtonTwoBus(t *testing.T) {
	n := twoBus(100, 50)
	res, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.Voltages.Vm[1] >= 1.0 {
		t.Fatalf("load bus voltage %v should sag below slack", res.Voltages.Vm[1])
	}
	if res.Voltages.Va[1] >= 0 {
		t.Fatalf("load bus angle %v should lag", res.Voltages.Va[1])
	}
	if mm := maxMismatch(n, &res.Voltages); mm > 1e-7 {
		t.Fatalf("final mismatch %v too large", mm)
	}
	// Slack must supply load plus positive losses.
	if res.GenP[0] <= 100 || res.GenP[0] > 110 {
		t.Fatalf("slack P = %v MW, want slightly above 100", res.GenP[0])
	}
	if res.LossP <= 0 || res.LossP > 10 {
		t.Fatalf("losses %v MW implausible", res.LossP)
	}
	if got := res.GenP[0] - 100; math.Abs(got-res.LossP) > 1e-6 {
		t.Fatalf("slack surplus %v != losses %v", got, res.LossP)
	}
}

func TestNewtonThreeBusPVHoldsVoltage(t *testing.T) {
	n := threeBus()
	res, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Voltages.Vm[1]-1.02) > 1e-9 {
		t.Fatalf("PV bus magnitude %v, want setpoint 1.02", res.Voltages.Vm[1])
	}
	if mm := maxMismatch(n, &res.Voltages); mm > 1e-7 {
		t.Fatalf("final mismatch %v", mm)
	}
	// Dispatched P at the PV bus must be honored exactly.
	if math.Abs(res.GenP[1]-40) > 1e-9 {
		t.Fatalf("PV gen P = %v, want 40", res.GenP[1])
	}
}

func TestNewtonFlatVsCaseStart(t *testing.T) {
	n := threeBus()
	r1, err := Solve(n, Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(n, Options{FlatStart: false})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Voltages.Vm {
		if math.Abs(r1.Voltages.Vm[i]-r2.Voltages.Vm[i]) > 1e-7 {
			t.Fatalf("flat vs case start disagree at bus %d", i)
		}
	}
}

func TestWarmStartFewerIterations(t *testing.T) {
	n := threeBus()
	base, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the load slightly; warm start should converge in fewer
	// iterations than a flat start.
	n.Loads[0].P += 5
	cold, err := Solve(n, Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(n, Options{Warm: &base.Voltages})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm start took %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
}

func TestFastDecoupledMatchesNewton(t *testing.T) {
	n := threeBus()
	nr, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := Solve(n, Options{Algorithm: FastDecoupled, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range nr.Voltages.Vm {
		if math.Abs(nr.Voltages.Vm[i]-fd.Voltages.Vm[i]) > 1e-6 {
			t.Fatalf("Vm[%d]: NR %v vs FDPF %v", i, nr.Voltages.Vm[i], fd.Voltages.Vm[i])
		}
		if math.Abs(nr.Voltages.Va[i]-fd.Voltages.Va[i]) > 1e-6 {
			t.Fatalf("Va[%d]: NR %v vs FDPF %v", i, nr.Voltages.Va[i], fd.Voltages.Va[i])
		}
	}
}

func TestQLimitSwitchesPVToPQ(t *testing.T) {
	n := threeBus()
	// Strangle the PV unit's reactive range so it cannot hold 1.02 p.u.
	n.Gens[1].QMin, n.Gens[1].QMax = -1, 1
	res, err := Solve(n, Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	// The bus can no longer be held at setpoint.
	if math.Abs(res.Voltages.Vm[1]-1.02) < 1e-6 {
		t.Fatalf("PV bus still at setpoint %v despite exhausted Q range", res.Voltages.Vm[1])
	}
	// Allocated Q must sit at the binding limit.
	if res.GenQ[1] < -1-1e-6 || res.GenQ[1] > 1+1e-6 {
		t.Fatalf("gen Q %v outside [-1, 1]", res.GenQ[1])
	}
}

func TestDCPowerFlow(t *testing.T) {
	n := threeBus()
	res, err := Solve(n, Options{Algorithm: DC})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("DC not converged")
	}
	if res.Voltages.Va[0] != 0 {
		t.Fatalf("slack angle %v, want 0", res.Voltages.Va[0])
	}
	// Lossless: slack generation + PV dispatch == total load.
	total := res.GenP[0] + res.GenP[1]
	if math.Abs(total-90) > 1e-6 {
		t.Fatalf("DC generation %v, want 90 (lossless)", total)
	}
	// DC flow direction sanity: power moves toward the load bus.
	if res.Flows[1].FromP <= 0 {
		t.Fatalf("flow on branch 1->2 is %v, want positive toward load", res.Flows[1].FromP)
	}
}

func TestDCFlowsApproximateAC(t *testing.T) {
	n := threeBus()
	ac, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := Solve(n, Options{Algorithm: DC})
	if err != nil {
		t.Fatal(err)
	}
	for k := range n.Branches {
		if math.Abs(ac.Flows[k].FromP-dc.Flows[k].FromP) > 8 {
			t.Fatalf("branch %d: AC %v vs DC %v MW diverge too much", k, ac.Flows[k].FromP, dc.Flows[k].FromP)
		}
	}
}

func TestBranchFlowConsistency(t *testing.T) {
	n := threeBus()
	res, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sum of losses per branch equals reported total.
	var sum float64
	for _, f := range res.Flows {
		sum += f.FromP + f.ToP
	}
	if math.Abs(sum-res.LossP) > 1e-9 {
		t.Fatalf("per-branch losses %v vs total %v", sum, res.LossP)
	}
}

// TestJacobianMatchesFiniteDifferences checks the one Jacobian kernel under
// both index maps against central differences: the reduced map of the
// one-shot Solve (PV magnitude eliminated) and the augmented map of the N-1
// sweep with the PV bus pinned — identity row, zeroed pinned couplings, and
// every live partial.
func TestJacobianMatchesFiniteDifferences(t *testing.T) {
	n := threeBus() // bus 0 slack, bus 1 PV, bus 2 PQ
	y := model.BuildYbus(n)
	vm := []float64{1.04, 1.01, 0.97}
	va := []float64{0, -0.05, -0.11}
	pq := []int{2}

	for _, tc := range []struct {
		name string
		st   *fixedState
	}{
		{"reduced", newFixedState(y, []int{-1, 0, 1}, []int{-1, -1, 2}, 3, true)},
		{"augmented-pinned-pv", augmentedState(y, 3, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.st
			for _, i := range pq {
				st.isPQ[i] = true
			}
			injectionsInto(y, vm, va, st.cs, st.sn, st.p, st.q)
			st.jac.refill(y, st, vm)

			// unknown k -> (bus, is-magnitude)
			bus := make([]int, st.dim)
			mag := make([]bool, st.dim)
			for i := range st.aPos {
				if a := st.aPos[i]; a >= 0 {
					bus[a] = i
				}
				if m := st.mPos[i]; m >= 0 {
					bus[m], mag[m] = i, true
				}
			}
			pinned := func(k int) bool { return mag[k] && !st.isPQ[bus[k]] }
			// residual of row r: P at angle rows, Q at magnitude rows
			eval := func(r int, vm, va []float64) float64 {
				p, q := injections(y, vm, va)
				if mag[r] {
					return q[bus[r]]
				}
				return p[bus[r]]
			}
			const h = 1e-7
			live := 0
			for k := 0; k < st.dim; k++ {
				for r := 0; r < st.dim; r++ {
					got := st.jac.mat.At(r, k)
					if pinned(r) || pinned(k) {
						want := 0.0
						if r == k {
							want = 1
						}
						if got != want {
							t.Fatalf("pinned J[%d,%d] = %v, want exactly %v", r, k, got, want)
						}
						continue
					}
					f := func(delta float64) float64 {
						pm := append([]float64(nil), vm...)
						pa := append([]float64(nil), va...)
						if mag[k] {
							pm[bus[k]] += delta
						} else {
							pa[bus[k]] += delta
						}
						return eval(r, pm, pa)
					}
					fd := (f(h) - f(-h)) / (2 * h)
					if math.Abs(fd-got) > 1e-5*math.Max(1, math.Abs(fd)) {
						t.Fatalf("J[%d,%d] = %v, finite difference %v", r, k, got, fd)
					}
					live++
				}
			}
			if live != 9 {
				t.Fatalf("checked %d live partials, want 9 (3 equations x 3 free unknowns)", live)
			}
		})
	}
}

func TestSolveNoSlack(t *testing.T) {
	n := twoBus(10, 5)
	n.Buses[0].Type = model.PQ
	if _, err := Solve(n, Options{}); err == nil {
		t.Fatal("expected error without slack bus")
	}
}

func TestDivergenceReported(t *testing.T) {
	// Absurd load forces divergence (or non-convergence) and must be
	// reported as an error with Converged=false, never silently.
	n := twoBus(5000, 2500)
	res, err := Solve(n, Options{MaxIter: 10})
	if err == nil || (res != nil && res.Converged) {
		t.Fatal("expected non-convergence for 50 p.u. load over x=0.1 line")
	}
}

func TestHeavyLoadStillSolves(t *testing.T) {
	// Near the nose of the PV curve but feasible: for a pure reactance
	// x=0.1 the boundary is P² + (Q+10·V²)² = 100·V², which still has a
	// real solution (V ≈ 0.85) at 350 MW / 50 MVAr.
	n := twoBus(350, 50)
	res, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Voltages.Vm[1] > 0.95 || res.Voltages.Vm[1] < 0.5 {
		t.Fatalf("heavy-load voltage %v outside expected sag range", res.Voltages.Vm[1])
	}
}

func TestAngleWrap(t *testing.T) {
	if v := angleWrap(3 * math.Pi); math.Abs(v-math.Pi) > 1e-12 {
		t.Fatalf("angleWrap(3π) = %v", v)
	}
	if v := angleWrap(-3 * math.Pi); math.Abs(v-math.Pi) > 1e-12 {
		t.Fatalf("angleWrap(-3π) = %v want π", v)
	}
	if v := angleWrap(-math.Pi); v != math.Pi {
		t.Fatalf("angleWrap(-π) = %v want π", v)
	}
	// Within one wrap the result is the exact single subtraction.
	for _, a := range []float64{0, 1, -1, math.Pi, 3.2, -3.2, 5, -5, 9.4, -9.4} {
		want := a
		if a > math.Pi {
			want = a - 2*math.Pi
		} else if a <= -math.Pi {
			want = a + 2*math.Pi
		}
		if v := angleWrap(a); v != want {
			t.Fatalf("angleWrap(%v) = %v want %v", a, v, want)
		}
	}
	// Far out of range the cost stays constant: no wrap loop to run.
	for _, a := range []float64{1e9, -1e9, 1e17, -1e17} {
		if v := angleWrap(a); !(v > -math.Pi && v <= math.Pi) {
			t.Fatalf("angleWrap(%v) = %v outside (-π, π]", a, v)
		}
	}
	for _, a := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if v := angleWrap(a); !math.IsNaN(v) {
			t.Fatalf("angleWrap(%v) = %v want NaN", a, v)
		}
	}
}

func TestOutOfServiceBranchExcluded(t *testing.T) {
	n := threeBus()
	n.Branches[2].InService = false
	res, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[2].FromP != 0 || res.Flows[2].LoadingPct != 0 {
		t.Fatalf("out-of-service branch reports flow %v", res.Flows[2])
	}
	if mm := maxMismatch(n, &res.Voltages); mm > 1e-7 {
		t.Fatalf("mismatch %v after outage", mm)
	}
}
