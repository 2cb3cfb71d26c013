package scenario

import (
	"fmt"
	"math"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// The cascade differential harness: for every in-service seed outage of
// the paper's mid-size cases, the zero-clone stacked-view cascade must
// reproduce the brute-force clone-and-resolve reference — the SAME trip
// sequence stage by stage, and every flows/voltage-derived metric to
// 1e-9. Trip selection feeds back into topology (each stage's selection
// decides the next stage's patches), so any divergence compounds: an
// exact sequence match is the strongest pin the cascade engine has.

const diffTol = 1e-9

func close9(a, b float64) bool {
	return math.Abs(a-b) <= diffTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func solveBase(t *testing.T, n *model.Network) *powerflow.Result {
	t.Helper()
	res, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("base case did not converge")
	}
	return res
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func diffStage(ref, got *Stage) error {
	switch {
	case !sameInts(ref.Trips, got.Trips):
		return fmt.Errorf("trips %v vs %v", ref.Trips, got.Trips)
	case !sameInts(ref.NextTrips, got.NextTrips):
		return fmt.Errorf("next trips %v vs %v", ref.NextTrips, got.NextTrips)
	case ref.Islanded != got.Islanded:
		return fmt.Errorf("islanded %v vs %v", ref.Islanded, got.Islanded)
	case ref.Converged != got.Converged:
		return fmt.Errorf("converged %v vs %v", ref.Converged, got.Converged)
	case ref.Algorithm != got.Algorithm:
		return fmt.Errorf("algorithm %q vs %q", ref.Algorithm, got.Algorithm)
	case !close9(ref.MaxLoadingPct, got.MaxLoadingPct):
		return fmt.Errorf("max loading %v vs %v", ref.MaxLoadingPct, got.MaxLoadingPct)
	case !close9(ref.MinVoltagePU, got.MinVoltagePU):
		return fmt.Errorf("min voltage %v vs %v", ref.MinVoltagePU, got.MinVoltagePU)
	case !close9(ref.RedispatchMW, got.RedispatchMW):
		return fmt.Errorf("redispatch %v vs %v", ref.RedispatchMW, got.RedispatchMW)
	case len(ref.Overloads) != len(got.Overloads):
		return fmt.Errorf("%d overloads vs %d", len(ref.Overloads), len(got.Overloads))
	case len(ref.VoltViols) != len(got.VoltViols):
		return fmt.Errorf("%d voltage violations vs %d", len(ref.VoltViols), len(got.VoltViols))
	}
	for i := range ref.Overloads {
		r, g := ref.Overloads[i], got.Overloads[i]
		if r.Branch != g.Branch || !close9(r.LoadingPct, g.LoadingPct) {
			return fmt.Errorf("overload %d: (%d, %v) vs (%d, %v)", i, r.Branch, r.LoadingPct, g.Branch, g.LoadingPct)
		}
	}
	for i := range ref.VoltViols {
		r, g := ref.VoltViols[i], got.VoltViols[i]
		if r.BusID != g.BusID || r.Low != g.Low || !close9(r.VmPU, g.VmPU) {
			return fmt.Errorf("voltage violation %d: %+v vs %+v", i, r, g)
		}
	}
	return nil
}

func diffCascade(ref, got *CascadeResult) error {
	switch {
	case ref.Outcome != got.Outcome:
		return fmt.Errorf("outcome %q vs %q", ref.Outcome, got.Outcome)
	case ref.Depth != got.Depth:
		return fmt.Errorf("depth %d vs %d", ref.Depth, got.Depth)
	case !sameInts(ref.TrippedBranches, got.TrippedBranches):
		return fmt.Errorf("trip sequence %v vs %v", ref.TrippedBranches, got.TrippedBranches)
	case !sameInts(ref.GensOut, got.GensOut):
		return fmt.Errorf("gens out %v vs %v", ref.GensOut, got.GensOut)
	case !close9(ref.LoadShedMW, got.LoadShedMW):
		return fmt.Errorf("load shed %v vs %v", ref.LoadShedMW, got.LoadShedMW)
	case !close9(ref.LostGenMW, got.LostGenMW):
		return fmt.Errorf("lost gen %v vs %v", ref.LostGenMW, got.LostGenMW)
	case !close9(ref.Severity, got.Severity):
		return fmt.Errorf("severity %v vs %v", ref.Severity, got.Severity)
	case len(ref.Stages) != len(got.Stages):
		return fmt.Errorf("%d stages vs %d", len(ref.Stages), len(got.Stages))
	}
	for i := range ref.Stages {
		if err := diffStage(&ref.Stages[i], &got.Stages[i]); err != nil {
			return fmt.Errorf("stage %d: %v", i, err)
		}
	}
	return nil
}

// TestCascadeDifferentialSeeds pins the stacked-view cascade against the
// clone reference on EVERY in-service seed branch outage of case30 and
// case57, at the default depth-3 protection rule. A stressed trip
// threshold (105%) on a demand bump makes real multi-stage propagation
// common rather than exceptional — arrested-at-stage-0 cascades would pin
// nothing beyond the N-1 sweep.
func TestCascadeDifferentialSeeds(t *testing.T) {
	for _, name := range []string{"case30", "case57"} {
		for _, cfg := range []struct {
			label string
			opts  Options
			ev    func(k int) Event
		}{
			{
				label: "default",
				opts:  Options{},
				ev:    func(k int) Event { return Event{Branches: []int{k}} },
			},
			{
				label: "stressed",
				opts:  Options{TripPct: 105, MaxTripsPerStage: 3},
				ev:    func(k int) Event { return Event{Branches: []int{k}, LoadScale: 1.1} },
			},
		} {
			t.Run(name+"/"+cfg.label, func(t *testing.T) {
				n := cases.MustLoad(name)
				base := solveBase(t, n)
				var deepest int
				for _, k := range n.InServiceBranches() {
					ref := cascadeReference(n, base, cfg.ev(k), cfg.opts)
					got, err := Cascade(n, base, cfg.ev(k), cfg.opts)
					if err != nil {
						t.Fatal(err)
					}
					if err := diffCascade(ref, got); err != nil {
						t.Fatalf("%s seed %d: view cascade diverges from clone reference: %v", name, k, err)
					}
					if got.Depth > deepest {
						deepest = got.Depth
					}
				}
				t.Logf("%s/%s: deepest cascade %d stages", name, cfg.label, deepest)
			})
		}
	}
}

// TestCascadeDifferentialMixedEvents drives compound initiating events —
// branch trips plus generator outages plus off-nominal demand, with
// between-stage redispatch enabled — through both backends. These hit
// every view dimension at once (Ybus patches, in-place classification,
// load scaling, dispatch overrides).
func TestCascadeDifferentialMixedEvents(t *testing.T) {
	for _, name := range []string{"case30", "case57"} {
		t.Run(name, func(t *testing.T) {
			n := cases.MustLoad(name)
			base := solveBase(t, n)
			opts := Options{TripPct: 108, Redispatch: true}
			branches := n.InServiceBranches()
			for i, k := range branches {
				ev := Event{
					Branches:  []int{k, branches[(i+7)%len(branches)]},
					Gens:      []int{i % len(n.Gens)},
					LoadScale: 1.05,
				}
				ref := cascadeReference(n, base, ev, opts)
				got, err := Cascade(n, base, ev, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := diffCascade(ref, got); err != nil {
					t.Fatalf("%s event %+v: %v", name, ev, err)
				}
			}
		})
	}
}

// TestCascadeSweepDifferential pins the full parallel sweep — four
// workers, pooled context reuse, DC screen disabled so every seed is
// studied — against a sequential loop of clone-backed cascades, including
// the aggregate classification the sweep derives from them.
func TestCascadeSweepDifferential(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	got, err := Sweep(n, base, Options{Workers: 4, Pool: contingency.NewSweepPool(contingency.NewBase)})
	if err != nil {
		t.Fatal(err)
	}
	want := SweepResult{WorstSeed: -1}
	for k := range n.Branches {
		g := got.Results[k]
		if !n.Branches[k].InService {
			if g != nil {
				t.Fatalf("seed %d is out of service but has a result", k)
			}
			continue
		}
		r := cascadeReference(n, base, Event{Branches: []int{k}}, Options{})
		if g == nil {
			t.Fatalf("seed %d: no result", k)
		}
		if err := diffCascade(r, g); err != nil {
			t.Fatalf("seed %d: %v", k, err)
		}
		want.Seeds++
		switch r.Outcome {
		case OutcomeStable:
			want.Stable++
		case OutcomeIslanded:
			want.Islanded++
		case OutcomeCollapse:
			want.Collapsed++
		case OutcomeDepthLimit:
			want.DepthLimited++
		}
		if r.Depth > 0 {
			want.Cascaded++
		}
		if r.Severity > want.WorstSeverity {
			want.WorstSeverity, want.WorstSeed = r.Severity, k
		}
	}
	if want.Seeds != got.Seeds || want.Stable != got.Stable || want.Islanded != got.Islanded ||
		want.Collapsed != got.Collapsed || want.DepthLimited != got.DepthLimited || want.Cascaded != got.Cascaded {
		t.Fatalf("aggregate classification differs: want %+v vs got %+v", want, got)
	}
	if want.WorstSeed != got.WorstSeed || !close9(want.WorstSeverity, got.WorstSeverity) {
		t.Fatalf("worst seed: (%d, %v) vs (%d, %v)", want.WorstSeed, want.WorstSeverity, got.WorstSeed, got.WorstSeverity)
	}
}

// TestCascadeScreenConservatism cascades every DC-screened seed with the
// screen off and asserts none of them actually cascades: no trips, no
// shed, outcome stable. The screen's certificate is "non-cascading", not
// "violation-free" — the MW-only DC prediction can miss reactive
// redistribution by ~18 points on these cases (measured), which is why
// the margins below the 115% trip threshold are sized the way they are
// and why the screen makes no claim about sub-trip overloads.
func TestCascadeScreenConservatism(t *testing.T) {
	total := 0
	for _, name := range []string{"case30", "case57"} {
		t.Run(name, func(t *testing.T) {
			n := cases.MustLoad(name)
			base := solveBase(t, n)
			screened, err := Sweep(n, base, Options{DCScreen: true})
			if err != nil {
				t.Fatal(err)
			}
			full, err := Sweep(n, base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// case30's base already runs a branch past the trip threshold,
			// so every seed there legitimately cascades and the screen must
			// certify nothing; teeth come from the cross-case total below.
			total += screened.Screened
			for k, r := range screened.Results {
				if r == nil || r.Outcome != OutcomeScreened {
					continue
				}
				f := full.Results[k]
				if f.Outcome != OutcomeStable {
					t.Errorf("seed %d: screened as secure but full cascade says %q", k, f.Outcome)
				}
				if f.Depth > 0 || f.LoadShedMW > 0 {
					t.Errorf("seed %d: screened as secure but tripped %v / shed %v MW", k, f.TrippedBranches[1:], f.LoadShedMW)
				}
			}
			t.Logf("%s: %d/%d seeds screened", name, screened.Screened, screened.Seeds)
		})
	}
	if total == 0 {
		t.Fatal("DC screen certified nothing on any case — the conservatism check has no teeth")
	}
}
