package scenario

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/model"
)

// Seeded determinism suite for the Monte Carlo reliability engine: a
// fixed seed must replay bit-identically across runs AND across worker
// counts (sample-derived RNGs make the draws scheduling-independent),
// and the Wilson machinery must bracket a known ground-truth probability
// on a synthetic fleet.

// TestMCDeterminism runs the same seeded study twice and at different
// worker counts, demanding reflect.DeepEqual on the full result —
// every drawn event, every outcome, every interval bound.
func TestMCDeterminism(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	mo := MCOptions{
		Samples:          60,
		Seed:             42,
		BranchOutageProb: 0.02,
		GenOutageProb:    0.01,
		LoadSigma:        0.05,
		Cascade:          Options{Pool: contingency.NewSweepPool(contingency.NewBase)},
	}
	first, err := RunMC(n, base, mo)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunMC(n, base, mo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("fixed-seed Monte Carlo run is not reproducible across runs")
	}
	for _, workers := range []int{1, 4} {
		mo2 := mo
		mo2.Cascade = Options{Pool: contingency.NewSweepPool(contingency.NewBase), Workers: workers}
		r, err := RunMC(n, base, mo2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, r) {
			t.Fatalf("Monte Carlo result depends on worker count (%d workers differ)", workers)
		}
	}
}

// TestMCDifferential pins the parallel Monte Carlo driver against the
// clone reference backend: every sample's event must be the one its
// derived seed draws, and cascading that event on the clone backend must
// reproduce the sampled outcome within the cascade tolerance — as must
// the loss-of-load and overload intervals built from those outcomes.
func TestMCDifferential(t *testing.T) {
	n := cases.MustLoad("case30")
	base := solveBase(t, n)
	mo := MCOptions{
		Samples:          40,
		Seed:             7,
		BranchOutageProb: 0.03,
		LoadSigma:        0.04,
		Cascade:          Options{Workers: 4, Pool: contingency.NewSweepPool(contingency.NewBase)},
	}
	got, err := RunMC(n, base, mo)
	if err != nil {
		t.Fatal(err)
	}
	var lol, ovl int
	for i, g := range got.Outcomes {
		ev := sampleEvent(n, rand.New(rand.NewSource(sampleSeed(mo.Seed, i))), mo)
		if !reflect.DeepEqual(g.Event, ev) {
			t.Fatalf("sample %d: event %+v, seed draws %+v", i, g.Event, ev)
		}
		r := cascadeReference(n, base, ev, Options{})
		var maxPct float64
		overloaded := false
		for _, sg := range r.Stages {
			maxPct = math.Max(maxPct, sg.MaxLoadingPct)
			overloaded = overloaded || len(sg.Overloads) > 0
		}
		lossOfLoad := r.LoadShedMW > 1e-9
		if g.Outcome != r.Outcome || g.Depth != r.Depth ||
			g.Overloaded != overloaded || g.LossOfLoad != lossOfLoad ||
			!close9(g.LoadShedMW, r.LoadShedMW) || !close9(g.MaxLoadingPct, maxPct) {
			t.Fatalf("sample %d: view outcome %+v diverges from clone reference %+v", i, g, r)
		}
		if lossOfLoad {
			lol++
		}
		if overloaded {
			ovl++
		}
	}
	if want := wilson(lol, mo.Samples); got.LossOfLoad != want {
		t.Fatalf("loss-of-load interval %+v, reference outcomes give %+v", got.LossOfLoad, want)
	}
	if want := wilson(ovl, mo.Samples); got.Overload != want {
		t.Fatalf("overload interval %+v, reference outcomes give %+v", got.Overload, want)
	}
}

// twoBusParallel builds the smallest network with a known analytic
// loss-of-load structure: one slack machine feeding one 50 MW load over
// two identical parallel branches. Either branch alone carries the load
// comfortably; losing BOTH islands the load. With independent outage
// probability p per branch, the true loss-of-load probability is p².
func twoBusParallel() *model.Network {
	n := &model.Network{
		Name:    "twobus",
		BaseMVA: 100,
		Buses: []model.Bus{
			{ID: 0, Type: model.Slack, Vm: 1, Va: 0, VMin: 0.9, VMax: 1.1, BaseKV: 138},
			{ID: 1, Type: model.PQ, Vm: 1, Va: 0, VMin: 0.9, VMax: 1.1, BaseKV: 138},
		},
		Loads: []model.Load{{Bus: 1, P: 50, Q: 10, InService: true}},
		Gens: []model.Generator{{
			Bus: 0, P: 50, PMin: 0, PMax: 200, QMin: -100, QMax: 100,
			VSetpoint: 1, InService: true,
		}},
		Branches: []model.Branch{
			{From: 0, To: 1, R: 0.01, X: 0.1, Tap: 1, RateMVA: 100, InService: true},
			{From: 0, To: 1, R: 0.01, X: 0.1, Tap: 1, RateMVA: 100, InService: true},
		},
	}
	return n
}

// TestMCWilsonSanity checks the statistical machinery end to end on the
// synthetic two-branch fleet: with branch outage probability 0.3, the
// analytic loss-of-load probability is 0.3² = 0.09, and the estimated
// 95% Wilson interval from a healthy sample count must bracket it.
func TestMCWilsonSanity(t *testing.T) {
	n := twoBusParallel()
	base := solveBase(t, n)
	res, err := RunMC(n, base, MCOptions{
		Samples:          1000,
		Seed:             2026,
		BranchOutageProb: 0.3,
		Cascade:          Options{Pool: contingency.NewSweepPool(contingency.NewBase)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const truth = 0.09
	lol := res.LossOfLoad
	if lol.Lo > truth || lol.Hi < truth {
		t.Fatalf("Wilson interval [%v, %v] (p̂=%v) misses the analytic LOLP %v",
			lol.Lo, lol.Hi, lol.P, truth)
	}
	if lol.Lo < 0 || lol.Hi > 1 || lol.Lo > lol.P || lol.P > lol.Hi {
		t.Fatalf("malformed interval %+v", lol)
	}
	// Every loss-of-load draw on this fleet is a double outage islanding
	// the whole 50 MW (scaled by the draw's demand multiplier — nominal
	// here, so exactly 50).
	for _, so := range res.Outcomes {
		if so.LossOfLoad && math.Abs(so.LoadShedMW-50) > 1e-9 {
			t.Fatalf("sample %d: shed %v MW, want exactly 50", so.Sample, so.LoadShedMW)
		}
	}
	t.Logf("LOLP estimate %.4f in [%.4f, %.4f], truth %.4f", lol.P, lol.Lo, lol.Hi, truth)
}

// TestWilsonInterval pins the interval arithmetic on hand-checked values.
func TestWilsonInterval(t *testing.T) {
	// k=0: the interval must NOT degenerate to [0,0] — that's the whole
	// point of Wilson over the normal approximation at the extremes.
	iv := wilson(0, 100)
	if iv.P != 0 || iv.Lo != 0 || iv.Hi <= 0 || iv.Hi > 0.05 {
		t.Fatalf("wilson(0,100) = %+v", iv)
	}
	iv = wilson(100, 100)
	if iv.P != 1 || iv.Hi != 1 || iv.Lo >= 1 || iv.Lo < 0.95 {
		t.Fatalf("wilson(100,100) = %+v", iv)
	}
	// k=9, n=100: textbook Wilson 95% bounds ≈ [0.0480, 0.1621].
	iv = wilson(9, 100)
	if math.Abs(iv.Lo-0.0480) > 5e-4 || math.Abs(iv.Hi-0.1621) > 5e-4 {
		t.Fatalf("wilson(9,100) = %+v, want ≈ [0.0480, 0.1621]", iv)
	}
	if iv := wilson(0, 0); iv != (Interval{}) {
		t.Fatalf("wilson(0,0) = %+v, want zero", iv)
	}
}
