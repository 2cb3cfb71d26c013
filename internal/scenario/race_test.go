package scenario_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/powerflow"
	"gridmind/internal/scenario"
)

// TestScenarioSharedEngineRace hammers one shared Engine from concurrent
// cascade sweeps (DC screen on, so the lazy LODF memo is hit from many
// goroutines), Monte Carlo runs, episodes, N-1 sweeps and generator
// sweeps — all checking workers out of the same state's one SweepPool and
// structural artifacts out of the same cache. Run under -race this is the
// concurrency pin; the Stats assertions additionally prove
// one-case-one-compilation: N goroutines share ONE Ybus, ONE topology,
// ONE PTDF build and ONE worker pool.
func TestScenarioSharedEngineRace(t *testing.T) {
	eng := engine.New()
	n, err := eng.Pristine("case57")
	if err != nil {
		t.Fatal(err)
	}
	art := eng.Artifacts(n)
	ptdfM, err := art.PTDF()
	if err != nil {
		t.Fatal(err)
	}
	base, err := eng.BasePF("race", n)
	if err != nil {
		t.Fatal(err)
	}
	pool := eng.SweepPool("race")
	mkOpts := func() scenario.Options {
		return scenario.Options{
			BaseYbus: art.Ybus(),
			Topology: art.Topology(),
			PTDF:     ptdfM,
			Reorder:  art.Ordering(),
			Pool:     pool,
			Workers:  2,
		}
	}

	contOpts := func() contingency.Options {
		return contingency.Options{
			BaseYbus: art.Ybus(),
			Topology: art.Topology(),
			Reorder:  art.Ordering(),
			Pool:     pool,
			Workers:  2,
		}
	}

	const goroutines = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 5 {
			case 0:
				opts := mkOpts()
				opts.DCScreen = true
				if _, err := scenario.Sweep(n, base, opts); err != nil {
					errs <- err
				}
			case 1:
				mo := scenario.MCOptions{
					Samples:          24,
					Seed:             int64(1000 + i),
					BranchOutageProb: 0.02,
					LoadSigma:        0.04,
					Cascade:          mkOpts(),
				}
				if _, err := scenario.RunMC(n, base, mo); err != nil {
					errs <- err
				}
			case 2:
				steps := make([]scenario.EpisodeStep, 12)
				for s := range steps {
					steps[s] = scenario.EpisodeStep{LoadScale: 0.9 + 0.02*float64(s)}
				}
				if _, err := scenario.Episode(n, base, steps, mkOpts()); err != nil {
					errs <- err
				}
			case 3:
				if _, err := contingency.Analyze(n, base, contOpts()); err != nil {
					errs <- err
				}
			case 4:
				if _, err := contingency.AnalyzeGenOutages(n, contOpts()); err != nil {
					errs <- err
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := eng.Stats()
	if st.YbusBuilds != 1 || st.TopoBuilds != 1 || st.PTDFBuilds != 1 {
		t.Fatalf("shared engine recompiled structure under concurrency: ybus=%d topo=%d ptdf=%d, want 1 each",
			st.YbusBuilds, st.TopoBuilds, st.PTDFBuilds)
	}
	if st.SweepPoolNew != 1 {
		t.Fatalf("state %q built %d worker pools, want 1", "race", st.SweepPoolNew)
	}
	if pool.ContextBuilds() == 0 {
		t.Fatal("worker pool was never used")
	}
	t.Logf("stats: %+v", st)
}

// TestRaceBaseFactorHistory pins the base factor's history independence:
// workers that have already run a cascade sweep, a generator sweep and an
// episode — each leaving their solvers' base factors built at other start
// states — must then sweep N-1 exactly as fresh workers do: the same
// convergence classes, islanding flags and overload sets, voltages within
// 1e-10, and in fact every record bit for bit. It runs on one pooled worker, and on two sharing one
// SweepPool concurrently.
func TestRaceBaseFactorHistory(t *testing.T) {
	n := cases.MustLoad("case57")
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := contingency.Analyze(n, base, contingency.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]scenario.EpisodeStep, 8)
	for s := range steps {
		steps[s] = scenario.EpisodeStep{LoadScale: 0.9 + 0.03*float64(s)}
	}
	steps[3].BranchesOut = []int{1}
	for _, workers := range []int{1, 2} {
		pool := contingency.NewSweepPool()
		if _, err := scenario.Sweep(n, base, scenario.Options{Pool: pool, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if _, err := contingency.AnalyzeGenOutages(n, contingency.Options{Pool: pool}); err != nil {
			t.Fatal(err)
		}
		if _, err := scenario.Episode(n, base, steps, scenario.Options{Pool: pool, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		got, err := contingency.Analyze(n, base, contingency.Options{Workers: workers, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if pool.ContextReuses() == 0 {
			t.Fatalf("%d workers: the N-1 sweep ran on no worker with a history", workers)
		}
		for i, w := range fresh.Outages {
			g := got.Outages[i]
			if g.Converged != w.Converged || g.Islanded != w.Islanded || g.Algorithm != w.Algorithm {
				t.Fatalf("%d workers, branch %d: class (%v, %v, %s), fresh (%v, %v, %s)",
					workers, w.Branch, g.Converged, g.Islanded, g.Algorithm, w.Converged, w.Islanded, w.Algorithm)
			}
			if !reflect.DeepEqual(overloaded(g), overloaded(w)) {
				t.Fatalf("%d workers, branch %d: overloads %v, fresh %v", workers, w.Branch, overloaded(g), overloaded(w))
			}
			if d := math.Abs(g.MinVoltagePU - w.MinVoltagePU); d > 1e-10 {
				t.Fatalf("%d workers, branch %d: min voltage differs by %.3e", workers, w.Branch, d)
			}
			// A solve does the same arithmetic whatever its solver did
			// before, so the records agree bit for bit.
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%d workers, branch %d: record differs from the fresh sweep\ngot:   %+v\nfresh: %+v", workers, w.Branch, g, w)
			}
		}
	}
}

// overloaded lists the overloaded branches of an outage record.
func overloaded(o contingency.OutageResult) []int {
	var ks []int
	for _, l := range o.Overloads {
		ks = append(ks, l.Branch)
	}
	return ks
}
