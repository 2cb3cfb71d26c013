package scenario

import (
	"errors"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/obs"
)

// TestOneSweepPoolServesEveryStudy runs every outage study — N-1, the
// generator sweep, a single outage, a cascade sweep, an episode and a
// Monte Carlo run — on one network through one SweepPool at one worker:
// they share one Worker, so the pool builds exactly one, and the worker
// comes back with an all-false branch mask.
func TestOneSweepPoolServesEveryStudy(t *testing.T) {
	n := cases.MustLoad("case30")
	base := solveBase(t, n)
	pool := contingency.NewSweepPool(contingency.NewBase)
	copts := contingency.Options{Workers: 1, Pool: pool}
	sopts := Options{Workers: 1, Pool: pool}

	if _, err := contingency.Analyze(n, base, copts); err != nil {
		t.Fatal(err)
	}
	if _, err := contingency.AnalyzeGenOutages(n, copts); err != nil {
		t.Fatal(err)
	}
	if _, err := contingency.AnalyzeOne(n, base, n.InServiceBranches()[0], copts); err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(n, base, sopts); err != nil {
		t.Fatal(err)
	}
	if _, err := Episode(n, base, []EpisodeStep{{LoadScale: 0.9}, {LoadScale: 1.1, BranchesOut: []int{3}}}, sopts); err != nil {
		t.Fatal(err)
	}
	if _, err := RunMC(n, base, MCOptions{Samples: 8, Seed: 7, BranchOutageProb: 0.05, Cascade: sopts}); err != nil {
		t.Fatal(err)
	}

	if b := pool.ContextBuilds(); b != 1 {
		t.Fatalf("six studies on one state built %d workers, want 1", b)
	}
	if r := pool.ContextReuses(); r != 5 {
		t.Fatalf("worker reuses = %d, want 5", r)
	}
	w := pool.Acquire(n)
	defer pool.Release(w)
	for k, out := range w.Mask() {
		if out {
			t.Fatalf("released worker still marks branch %d out", k)
		}
	}
}

// TestSweepRepivotsCounted pins the repivot counter where repivots
// happen: a case30 cascade sweep reaches stage states whose frozen pivots
// go stale, and gridmind_scenario_repivots_total counts each Repivot. A
// second sweep on the same pool repeats the count exactly, since a solve
// that repivots drops its pivots after it.
func TestSweepRepivotsCounted(t *testing.T) {
	n := cases.MustLoad("case30")
	base := solveBase(t, n)
	met := obs.NewRegistry()
	opts := Options{Workers: 1, Pool: contingency.NewSweepPool(contingency.NewBase), Metrics: met}
	if _, err := Sweep(n, base, opts); err != nil {
		t.Fatal(err)
	}
	first, ok := met.Value("gridmind_scenario_repivots_total", "kind", "cascade_sweep")
	if !ok || first < 1 {
		t.Fatalf("case30 cascade sweep: repivot counter %v (published %v), want at least 1", first, ok)
	}
	if _, err := Sweep(n, base, opts); err != nil {
		t.Fatal(err)
	}
	if got, _ := met.Value("gridmind_scenario_repivots_total", "kind", "cascade_sweep"); got != 2*first {
		t.Fatalf("second sweep: counter at %v, want %v", got, 2*first)
	}
}

// TestCascadeCountsSolveWork: a single-seed cascade publishes its solve
// work like a sweep does. case30 branch 0 fails Q-limited Newton and its
// stage solves with the Q limits relaxed, so the cascade's counter reads
// one such stage.
func TestCascadeCountsSolveWork(t *testing.T) {
	n := cases.MustLoad("case30")
	base := solveBase(t, n)
	met := obs.NewRegistry()
	opts := Options{Pool: contingency.NewSweepPool(contingency.NewBase), Metrics: met}
	r, err := Cascade(n, base, Event{Branches: []int{0}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stages[0].QLimitsRelaxed {
		t.Fatal("case30 branch 0: first stage not labelled q_limits_relaxed")
	}
	if got, ok := met.Value("gridmind_scenario_q_relaxed_total", "kind", "cascade"); got != 1 {
		t.Fatalf("cascade Q-relaxed counter %v (published %v), want 1", got, ok)
	}
}

// TestCascadeRejectsInvalidSeed: a seed branch that is out of range or
// out of service, or a generator index out of range, has no cascade to
// study, so Cascade fails with contingency.ErrInvalidOutage instead of
// reporting a stable non-event. In-range generators that are out of
// service or the sole slack machine are still dropped, as Monte Carlo
// draws need.
func TestCascadeRejectsInvalidSeed(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	slackGen := -1
	for g, gen := range n.Gens {
		if gen.InService && gen.Bus == n.SlackBus() {
			slackGen = g
		}
	}
	offBranch := n.Clone()
	offBranch.Branches[5].InService = false
	offGen := n.Clone()
	offGen.Gens[1].InService = false

	for _, c := range []struct {
		name    string
		ev      Event
		net     *model.Network // nil: case57 as loaded
		invalid bool
	}{
		{"branch out of range", Event{Branches: []int{9999}}, nil, true},
		{"negative branch", Event{Branches: []int{-3}}, nil, true},
		{"valid branch beside an invalid one", Event{Branches: []int{0, 9999}}, nil, true},
		{"out-of-service branch", Event{Branches: []int{5}}, offBranch, true},
		{"generator out of range", Event{Gens: []int{999}}, nil, true},
		{"negative generator", Event{Gens: []int{-1}}, nil, true},
		{"out-of-service generator dropped", Event{Gens: []int{1}}, offGen, false},
		{"sole slack machine dropped", Event{Gens: []int{slackGen}}, nil, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, b := n, base
			if c.net != nil {
				net, b = c.net, solveBase(t, c.net)
			}
			r, err := Cascade(net, b, c.ev, Options{})
			if c.invalid {
				if !errors.Is(err, contingency.ErrInvalidOutage) {
					t.Fatalf("Cascade(%+v) = %+v, %v; want ErrInvalidOutage", c.ev, r, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(r.GensOut) != 0 {
				t.Fatalf("generator draw %v was applied: GensOut = %v", c.ev.Gens, r.GensOut)
			}
		})
	}
}
