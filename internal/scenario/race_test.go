package scenario_test

import (
	"sync"
	"testing"

	"gridmind/internal/contingency"
	"gridmind/internal/engine"
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
