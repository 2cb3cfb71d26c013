package tools

import (
	"errors"
	"testing"

	"gridmind/internal/contingency"
	"gridmind/internal/session"
)

func extendedRegistry(t *testing.T) (*Registry, *session.Context) {
	t.Helper()
	r, sess := newGridMind(t)
	if err := RegisterExtensions(r, sess, sess.Engine()); err != nil {
		t.Fatal(err)
	}
	return r, sess
}

func TestExtensionsRegistered(t *testing.T) {
	r, _ := extendedRegistry(t)
	if len(r.tools) != 14 {
		t.Fatalf("registry has %d tools, want 7 paper tools + 7 extensions", len(r.tools))
	}
	for _, name := range []string{ToolLoadSensitivity, ToolCompareStrategy, ToolGenOutage, ToolAssessQuality, ToolRunN2, ToolCascade, ToolRunMC} {
		if _, ok := r.Get(name); !ok {
			t.Errorf("extension %s missing", name)
		}
	}
	// The extended toolboxes advertise them.
	if len(ExtendedACOPFToolNames()) != 6 {
		t.Fatalf("extended ACOPF toolbox has %d entries", len(ExtendedACOPFToolNames()))
	}
	if len(ExtendedCAToolNames()) != 8 {
		t.Fatalf("extended CA toolbox has %d entries", len(ExtendedCAToolNames()))
	}
}

func TestRunN2Tool(t *testing.T) {
	r, sess := extendedRegistry(t)
	if _, err := sess.LoadCase("case57"); err != nil {
		t.Fatal(err)
	}
	out, _, err := r.Invoke(ToolRunN2, map[string]any{"top_k": 3.0, "seed_k": 6.0})
	if err != nil {
		t.Fatal(err)
	}
	m := out.(map[string]any)
	if m["total_pairs"].(float64) <= 0 {
		t.Fatalf("no pairs analyzed: %v", m)
	}
	crit := m["critical"].([]any)
	if len(crit) == 0 || len(crit) > 3 {
		t.Fatalf("critical list has %d entries", len(crit))
	}
	for _, raw := range crit {
		row := raw.(map[string]any)
		if row["branch_a"] == row["branch_b"] {
			t.Fatalf("degenerate pair in critical list: %v", row)
		}
		if row["description"].(string) == "" {
			t.Fatal("missing pair narrative")
		}
	}
	// The seeding sweep was deposited in the session for reuse.
	if rs, fresh := sess.CASweep(); rs == nil || !fresh {
		t.Fatal("N-1 seeding sweep not stored in the session")
	}
}

func TestLoadSensitivityTool(t *testing.T) {
	r, _ := extendedRegistry(t)
	if _, _, err := r.Invoke(ToolSolveACOPF, map[string]any{"case_name": "case14"}); err != nil {
		t.Fatal(err)
	}
	out, _, err := r.Invoke(ToolLoadSensitivity, map[string]any{
		"buses": []any{9, 14}, "delta_mw": 2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := out.(map[string]any)
	rows := m["impacts"].([]any)
	if len(rows) != 2 {
		t.Fatalf("impact rows %d", len(rows))
	}
	for _, raw := range rows {
		row := raw.(map[string]any)
		if row["solved"] != true {
			t.Fatalf("probe not solved: %v", row)
		}
		if row["cost_per_mw"].(float64) <= 0 {
			t.Fatalf("non-positive marginal cost: %v", row)
		}
	}
	if m["lmp_consistency_error"].(float64) > 0.05 {
		t.Fatalf("LMP consistency error %v too large", m["lmp_consistency_error"])
	}
}

func TestLoadSensitivityDefaultBuses(t *testing.T) {
	r, _ := extendedRegistry(t)
	if _, _, err := r.Invoke(ToolSolveACOPF, map[string]any{"case_name": "case14"}); err != nil {
		t.Fatal(err)
	}
	out, _, err := r.Invoke(ToolLoadSensitivity, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.(map[string]any)["impacts"].([]any)
	if len(rows) != 3 {
		t.Fatalf("default probes %d, want the 3 priciest buses", len(rows))
	}
}

func TestLoadSensitivitySolvesWhenStale(t *testing.T) {
	// The tool must self-heal: no prior ACOPF in the session.
	r, sess := extendedRegistry(t)
	if _, err := sess.LoadCase("case14"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Invoke(ToolLoadSensitivity, map[string]any{"buses": []any{9}}); err != nil {
		t.Fatal(err)
	}
	if sol, fresh := sess.ACOPF(); sol == nil || !fresh {
		t.Fatal("tool did not deposit the base solve")
	}
}

func TestCompareStrategyTool(t *testing.T) {
	r, _ := extendedRegistry(t)
	if _, _, err := r.Invoke(ToolSolveACOPF, map[string]any{"case_name": "case57"}); err != nil {
		t.Fatal(err)
	}
	out, _, err := r.Invoke(ToolCompareStrategy, map[string]any{"max_rounds": 2.0})
	if err != nil {
		t.Fatal(err)
	}
	m := out.(map[string]any)
	econ := m["economic_cost"].(float64)
	sec := m["secure_cost"].(float64)
	if sec < econ-1e-6 {
		t.Fatalf("secure %v cheaper than economic %v", sec, econ)
	}
	if m["violations_before"].(float64) > 0 && m["violations_after"].(float64) >= m["violations_before"].(float64) {
		t.Fatalf("no security progress: %v -> %v", m["violations_before"], m["violations_after"])
	}
}

func TestCascadeToolEvent(t *testing.T) {
	r, sess := extendedRegistry(t)
	if _, err := sess.LoadCase("case30"); err != nil {
		t.Fatal(err)
	}
	out, _, err := r.Invoke(ToolCascade, map[string]any{
		"branches": []any{1.0}, "trip_pct": 105.0, "load_scale": 1.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := out.(map[string]any)
	if m["mode"].(string) != "event" {
		t.Fatalf("mode = %v", m["mode"])
	}
	seq := m["trip_sequence"].([]any)
	if len(seq) == 0 || int(seq[0].(float64)) != 1 {
		t.Fatalf("trip sequence %v does not start with the seed", seq)
	}
	if len(m["stages"].([]any)) == 0 {
		t.Fatal("no stage records")
	}
}

// TestCascadeToolRejectsInvalidSeed: LLM-supplied seed branches reach
// scenario.Cascade unfiltered, so an index that names no in-service
// branch must come back as an ErrInvalidOutage error, not as a "stable"
// study of a non-event.
func TestCascadeToolRejectsInvalidSeed(t *testing.T) {
	r, sess := extendedRegistry(t)
	if _, err := sess.LoadCase("case57"); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []any{[]any{9999.0}, []any{-3.0}, []any{0.0, 9999.0}} {
		out, _, err := r.Invoke(ToolCascade, map[string]any{"branches": seed})
		if !errors.Is(err, contingency.ErrInvalidOutage) {
			t.Fatalf("branches %v: got %v, %v; want ErrInvalidOutage", seed, out, err)
		}
	}
}

// TestCascadeEventBuildsNoPTDF: an event cascade never screens, so on a
// fresh engine it leaves the PTDF unbuilt; the screened sweep mode then
// builds it exactly once.
func TestCascadeEventBuildsNoPTDF(t *testing.T) {
	r, sess := extendedRegistry(t)
	eng := sess.Engine()
	if _, err := sess.LoadCase("case30"); err != nil {
		t.Fatal(err)
	}
	ptdfBuilds := func() int64 { return count(t, eng.Metrics(), "gridmind_engine_ptdf_builds_total") }
	if _, _, err := r.Invoke(ToolCascade, map[string]any{"branches": []any{1.0}}); err != nil {
		t.Fatal(err)
	}
	if b := ptdfBuilds(); b != 0 {
		t.Fatalf("event cascade built the PTDF %d times, want 0", b)
	}
	if _, _, err := r.Invoke(ToolCascade, map[string]any{}); err != nil {
		t.Fatal(err)
	}
	if b := ptdfBuilds(); b != 1 {
		t.Fatalf("screened cascade sweep built the PTDF %d times, want 1", b)
	}
}

func TestCascadeToolSweep(t *testing.T) {
	r, sess := extendedRegistry(t)
	if _, err := sess.LoadCase("case57"); err != nil {
		t.Fatal(err)
	}
	out, _, err := r.Invoke(ToolCascade, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	m := out.(map[string]any)
	if m["mode"].(string) != "sweep" {
		t.Fatalf("mode = %v", m["mode"])
	}
	seeds := m["seeds"].(float64)
	if seeds <= 0 {
		t.Fatalf("no seeds studied: %v", m)
	}
	if m["screened"].(float64) <= 0 {
		t.Fatalf("DC screen certified nothing on case57: %v", m["screened"])
	}
	// Outcomes partition the seeds; "cascaded" overlaps them (any seed
	// that propagated beyond stage 0, whatever its terminal outcome).
	sum := m["screened"].(float64) + m["stable"].(float64) + m["islanded"].(float64) +
		m["collapsed"].(float64) + m["depth_limited"].(float64)
	if sum != seeds {
		t.Fatalf("outcomes do not partition the seeds: %v of %v", sum, seeds)
	}
}

func TestReliabilityMCTool(t *testing.T) {
	r, sess := extendedRegistry(t)
	if _, err := sess.LoadCase("case30"); err != nil {
		t.Fatal(err)
	}
	args := map[string]any{"samples": 30.0, "seed": 5.0, "branch_outage_prob": 0.02}
	out, _, err := r.Invoke(ToolRunMC, args)
	if err != nil {
		t.Fatal(err)
	}
	m := out.(map[string]any)
	if m["samples"].(float64) != 30 {
		t.Fatalf("samples = %v", m["samples"])
	}
	lol := m["loss_of_load"].(map[string]any)
	if lol["lo"].(float64) > lol["p"].(float64) || lol["p"].(float64) > lol["hi"].(float64) {
		t.Fatalf("malformed interval %v", lol)
	}
	// Fixed seed: a second invocation reports identical indices.
	again, _, err := r.Invoke(ToolRunMC, args)
	if err != nil {
		t.Fatal(err)
	}
	m2 := again.(map[string]any)
	if m["lolp"].(float64) != m2["lolp"].(float64) || m["mean_shed_mw"].(float64) != m2["mean_shed_mw"].(float64) {
		t.Fatalf("fixed-seed tool invocations disagree: %v vs %v", m, m2)
	}
}
