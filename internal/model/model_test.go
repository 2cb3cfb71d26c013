package model

import (
	"math"
	"math/cmplx"
	"testing"
)

func validNet() *Network {
	return &Network{
		Name:    "t",
		BaseMVA: 100,
		Buses: []Bus{
			{ID: 1, Type: Slack, Vm: 1.0, VMin: 0.9, VMax: 1.1},
			{ID: 2, Type: PQ, Vm: 1.0, VMin: 0.9, VMax: 1.1},
			{ID: 3, Type: PQ, Vm: 1.0, VMin: 0.9, VMax: 1.1},
		},
		Loads: []Load{{Bus: 1, P: 50, Q: 10, InService: true}, {Bus: 2, P: 30, Q: 5, InService: true}},
		Gens: []Generator{
			{Bus: 0, PMax: 200, QMin: -100, QMax: 100, InService: true},
		},
		Branches: []Branch{
			{From: 0, To: 1, R: 0.01, X: 0.1, InService: true},
			{From: 1, To: 2, R: 0.01, X: 0.1, InService: true, IsTransformer: true, Tap: 0.98},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validNet().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Network)
	}{
		{"no slack", func(n *Network) { n.Buses[0].Type = PQ }},
		{"two slacks", func(n *Network) { n.Buses[1].Type = Slack }},
		{"duplicate bus id", func(n *Network) { n.Buses[1].ID = 1 }},
		{"bad voltage band", func(n *Network) { n.Buses[0].VMin = 1.2 }},
		{"zero base", func(n *Network) { n.BaseMVA = 0 }},
		{"load bus range", func(n *Network) { n.Loads[0].Bus = 9 }},
		{"gen bus range", func(n *Network) { n.Gens[0].Bus = -1 }},
		{"gen pmax<pmin", func(n *Network) { n.Gens[0].PMin = 300 }},
		{"self loop", func(n *Network) { n.Branches[0].To = 0 }},
		{"zero impedance", func(n *Network) { n.Branches[0].R, n.Branches[0].X = 0, 0 }},
		{"disconnected", func(n *Network) { n.Branches[1].InService = false }},
		{"nan branch", func(n *Network) { n.Branches[0].X = math.NaN() }},
	}
	for _, tc := range cases {
		n := validNet()
		tc.mutate(n)
		if err := n.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", tc.name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := validNet()
	c := n.Clone()
	c.Buses[0].Vm = 2
	c.Loads[0].P = 999
	c.Branches[0].InService = false
	if n.Buses[0].Vm == 2 || n.Loads[0].P == 999 || !n.Branches[0].InService {
		t.Fatal("Clone shares storage with original")
	}
}

func TestCounts(t *testing.T) {
	n := validNet()
	if n.NumLines() != 1 || n.NumTransformers() != 1 {
		t.Fatalf("lines=%d transformers=%d", n.NumLines(), n.NumTransformers())
	}
	s := n.Summarize()
	if s.Buses != 3 || s.Gens != 1 || s.Loads != 2 || s.ACLines != 1 || s.Transformers != 1 {
		t.Fatalf("summary %+v", s)
	}
}

func TestTotalsAndLookups(t *testing.T) {
	n := validNet()
	p, q := n.TotalLoad()
	if p != 80 || q != 15 {
		t.Fatalf("TotalLoad = %v, %v", p, q)
	}
	if n.TotalGenCapacity() != 200 {
		t.Fatalf("capacity %v", n.TotalGenCapacity())
	}
	if n.BusByID(3) != 2 || n.BusByID(99) != -1 {
		t.Fatal("BusByID failed")
	}
	if n.SlackBus() != 0 {
		t.Fatal("SlackBus failed")
	}
	lp, lq := n.BusLoad(1)
	if lp != 50 || lq != 10 {
		t.Fatalf("BusLoad = %v, %v", lp, lq)
	}
	if g := n.GensAtBus(0); len(g) != 1 || g[0] != 0 {
		t.Fatalf("GensAtBus = %v", g)
	}
	if got := n.InServiceBranches(); len(got) != 2 {
		t.Fatalf("InServiceBranches = %v", got)
	}
}

func TestConnectedComponents(t *testing.T) {
	n := validNet()
	_, c := n.ConnectedComponents()
	if c != 1 {
		t.Fatalf("components = %d", c)
	}
	n.Branches[1].InService = false
	comp, c := n.ConnectedComponents()
	if c != 2 {
		t.Fatalf("components after outage = %d", c)
	}
	if comp[0] != comp[1] || comp[0] == comp[2] {
		t.Fatalf("component labels %v", comp)
	}
}

func TestCostCurve(t *testing.T) {
	c := CostCurve{C2: 0.1, C1: 20, C0: 5}
	if got := c.At(10); math.Abs(got-215) > 1e-12 {
		t.Fatalf("At(10) = %v want 215", got)
	}
	if got := c.Marginal(10); math.Abs(got-22) > 1e-12 {
		t.Fatalf("Marginal(10) = %v want 22", got)
	}
}

func TestBusTypeString(t *testing.T) {
	for ty, want := range map[BusType]string{PQ: "PQ", PV: "PV", Slack: "slack", Isolated: "isolated"} {
		if ty.String() != want {
			t.Fatalf("%d.String() = %q", ty, ty.String())
		}
	}
}

// Ybus invariants: row sums of a shunt-free, tap-free network equal the
// negated sum of off-diagonals (zero injection at flat voltage with no
// shunts only when line charging is zero).
func TestYbusRowStructure(t *testing.T) {
	n := validNet()
	n.Branches[1].Tap = 0
	n.Branches[1].IsTransformer = false
	y := BuildYbus(n)
	// With no shunts and no charging, Y·1 = 0 (flat voltage, no current).
	ones := make([]complex128, 3)
	for i := range ones {
		ones[i] = 1
	}
	s := y.Injections(ones)
	for i, v := range s {
		if cmplx.Abs(v) > 1e-12 {
			t.Fatalf("injection[%d] = %v, want 0 for flat profile", i, v)
		}
	}
}

func TestYbusTapAsymmetry(t *testing.T) {
	n := validNet()
	y := BuildYbus(n)
	// Branch 1 has tap 0.98: Yft and Ytf must differ from the symmetric
	// line case (off-nominal tap breaks from/to symmetry in magnitude).
	if cmplx.Abs(y.Yff[1]-y.Ytt[1]) < 1e-12 {
		t.Fatal("tap branch should have asymmetric self admittances")
	}
	// A plain line stays symmetric.
	if cmplx.Abs(y.Yff[0]-y.Ytt[0]) > 1e-12 {
		t.Fatal("plain line self admittances must match")
	}
}

func TestYbusOutOfServiceExcluded(t *testing.T) {
	n := validNet()
	n.Branches[0].InService = false
	y := BuildYbus(n)
	if y.Yff[0] != 0 || y.At(0, 1) != 0 {
		t.Fatal("out-of-service branch leaked into Ybus")
	}
}

func TestBranchFlowEnergyBalance(t *testing.T) {
	n := validNet()
	y := BuildYbus(n)
	v := []complex128{cmplx.Rect(1.0, 0), cmplx.Rect(0.98, -0.02), cmplx.Rect(0.97, -0.04)}
	sfs, sts := make([]complex128, len(n.Branches)), make([]complex128, len(n.Branches))
	y.BranchFlowsInto(n, v, sfs, sts)
	sf, st := sfs[0], sts[0]
	// Active power loss on the branch must be non-negative.
	if real(sf)+real(st) < 0 {
		t.Fatalf("branch 0 creates power: loss = %v", real(sf)+real(st))
	}
	// And flows must be on the order of the voltage differences.
	if math.Abs(real(sf)) > 500 {
		t.Fatalf("flow magnitude %v implausible", real(sf))
	}
}

func TestVoltageVectorRoundTrip(t *testing.T) {
	vm := []float64{1.0, 0.95}
	va := []float64{0.1, -0.2}
	for i, x := range VoltageVector(vm, va) {
		if math.Abs(cmplx.Abs(x)-vm[i]) > 1e-12 || math.Abs(cmplx.Phase(x)-va[i]) > 1e-12 {
			t.Fatalf("round trip differs at %d", i)
		}
	}
}
