package scenario_test

import (
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/engine"
	"gridmind/internal/scenario"
)

// TestSweepBuildsMissingPTDF pins the cascade sweep's screen to the N-1
// screener's contract: DCScreen alone screens, on a one-shot base whose
// distribution factors the sweep builds itself, exactly the seeds a sweep
// on the engine's pool, with the engine's shared PTDF, screens.
func TestSweepBuildsMissingPTDF(t *testing.T) {
	eng := engine.New()
	n := cases.MustLoad("case57")
	base, err := eng.BasePF("screen", n)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := scenario.Sweep(n, base, scenario.Options{DCScreen: true, Pool: eng.SweepPool("screen"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := scenario.Sweep(n, base, scenario.Options{DCScreen: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Screened == 0 || bare.Screened != shared.Screened {
		t.Fatalf("bare DCScreen sweep screened %d seeds, with the engine's PTDF %d", bare.Screened, shared.Screened)
	}
	for k, r := range shared.Results {
		if r == nil {
			continue
		}
		if got := bare.Results[k]; (got.Outcome == scenario.OutcomeScreened) != (r.Outcome == scenario.OutcomeScreened) || got.ScreenedPct != r.ScreenedPct {
			t.Fatalf("seed %d: bare sweep %q (%.6g%%), shared PTDF %q (%.6g%%)", k, got.Outcome, got.ScreenedPct, r.Outcome, r.ScreenedPct)
		}
	}
	t.Logf("case57: %d/%d seeds screened", bare.Screened, bare.Seeds)
}
