package contingency

import (
	"reflect"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// TestAnalyzeOneSharedArtifactsMatch pins the pooled path (one outage
// base, pooled worker context) to the one-shot path result-for-result:
// sharing the base must change nothing but the work done.
func TestAnalyzeOneSharedArtifactsMatch(t *testing.T) {
	n := cases.MustLoad("case57")
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil || !base.Converged {
		t.Fatalf("base power flow: %v", err)
	}
	shared := Options{Pool: NewSweepPool(NewBase)}
	for _, k := range n.InServiceBranches() {
		bare := analyzeOne(t, n, base, k, Options{})
		pooled := analyzeOne(t, n, base, k, shared)
		if !reflect.DeepEqual(bare, pooled) {
			t.Fatalf("branch %d: shared-artifact result diverged\nbare:   %+v\npooled: %+v", k, bare, pooled)
		}
	}
	if shared.Pool.ContextBuilds() != 1 {
		t.Fatalf("pool built %d contexts across the loop, want 1", shared.Pool.ContextBuilds())
	}
	if shared.Pool.ContextReuses() == 0 {
		t.Fatal("pool never recycled a context")
	}
}

// TestAnalyzeOneSharedArtifactsZeroClones: on a pool, single-outage
// queries clone and materialize nothing, whether the
// outage solves by Newton or escalates. Every case30 outage is queried,
// and the test requires that one of them still escalates.
func TestAnalyzeOneSharedArtifactsZeroClones(t *testing.T) {
	n := cases.MustLoad("case30")
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	shared := Options{Pool: NewSweepPool(NewBase)}
	clones, mats := model.CloneCount(), model.MaterializeCount()
	escalated := 0
	for _, k := range n.InServiceBranches() {
		if r := analyzeOne(t, n, base, k, shared); r.QLimitsRelaxed || (!r.Islanded && !r.Converged) {
			escalated++
		}
	}
	if d := model.CloneCount() - clones; d != 0 {
		t.Fatalf("pooled AnalyzeOne cloned %d times, want 0", d)
	}
	if d := model.MaterializeCount() - mats; d != 0 {
		t.Fatalf("pooled AnalyzeOne materialized %d times, want 0", d)
	}
	if escalated == 0 {
		t.Fatal("no case30 outage escalated past Newton; the corpus must exercise the failure path")
	}
}

// TestGenOutagePoolMatch pins the pooled generator-outage path to the
// bare one.
func TestGenOutagePoolMatch(t *testing.T) {
	n := cases.MustLoad("case30")
	shared := Options{Pool: NewSweepPool(NewBase)}
	for g, gen := range n.Gens {
		if !gen.InService {
			continue
		}
		bare, err1 := AnalyzeGenOutage(n, g, Options{})
		pooled, err2 := AnalyzeGenOutage(n, g, shared)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("gen %d: error divergence %v vs %v", g, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !reflect.DeepEqual(bare, pooled) {
			t.Fatalf("gen %d: pooled result diverged\nbare:   %+v\npooled: %+v", g, bare, pooled)
		}
	}
}
