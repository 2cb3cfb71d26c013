package tools

import (
	"testing"

	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/model"
	"gridmind/internal/session"
)

// sessionWorkload drives one session through the serving hot paths the
// tools use: the cold ACOPF with recovery, base power flow, full N-1
// sweep, a single-outage query and a DC-screened sweep on the shared
// PTDF. It returns the session.
func sessionWorkload(t *testing.T, eng *engine.Engine) *session.Context {
	t.Helper()
	sess := session.NewWithEngine(nil, eng)
	if _, err := sess.LoadCase("case30"); err != nil {
		t.Fatal(err)
	}
	sol, _, err := solveWithRecovery(sess, eng, nil)
	if err != nil || !sol.Solved {
		t.Fatalf("acopf: %v", err)
	}
	sess.SetACOPF(sol)
	if _, _, err := ensureCASweep(sess, eng); err != nil {
		t.Fatal(err)
	}
	n, err := sess.Network()
	if err != nil {
		t.Fatal(err)
	}
	base, err := ensureBase(sess, eng)
	if err != nil {
		t.Fatal(err)
	}
	opts := sharedOpts(sess, eng)
	if _, err := contingency.AnalyzeOne(n, base, n.InServiceBranches()[0], opts); err != nil {
		t.Fatal(err)
	}
	opts.Cache, opts.DCScreen = nil, true // screen for real, not from the session's cache
	if _, err := contingency.Analyze(n, base, opts); err != nil {
		t.Fatal(err)
	}
	return sess
}

// opfCheckouts reads the engine's KKT-context checkouts for one result
// ("create" or "reuse").
func opfCheckouts(t *testing.T, eng *engine.Engine, result string) int64 {
	t.Helper()
	return count(t, eng.Metrics(), "gridmind_engine_opf_context_checkouts_total", "result", result)
}

// TestSecondSessionSharesCompiledArtifacts is the acceptance check for the
// multi-session engine: after a first session compiles everything for a
// case, an identical second session performs ZERO ptdf.Build, zero KKT
// pattern compilations, zero Ybus/topology builds, zero base-PF solves
// and zero cold ACOPF solves — proven by the engine's exact counters, not
// timings. Its what-if re-solve still runs in the pooled KKT context.
func TestSecondSessionSharesCompiledArtifacts(t *testing.T) {
	eng := engine.New()
	met := eng.Metrics()
	builds := func() (ptdf, ybus, topo int64) {
		return count(t, met, "gridmind_engine_ptdf_builds_total"),
			count(t, met, "gridmind_engine_ybus_builds_total"),
			count(t, met, "gridmind_engine_topology_builds_total")
	}
	basePFSolves := func() int64 { return count(t, met, "gridmind_engine_base_pf_total", "result", "solve") }
	acopf := func(result string) int64 { return count(t, met, "gridmind_engine_acopf_total", "result", result) }

	sessionWorkload(t, eng)
	ptdf1, ybus1, topo1 := builds()
	if ptdf1 != 1 || ybus1 != 1 || topo1 != 1 {
		t.Fatalf("first session builds ptdf/ybus/topo = %d/%d/%d, want 1/1/1", ptdf1, ybus1, topo1)
	}
	creates1, reuses1 := opfCheckouts(t, eng, "create"), opfCheckouts(t, eng, "reuse")
	if creates1 != 1 {
		t.Fatalf("first session created %d KKT contexts, want 1", creates1)
	}
	solves1 := basePFSolves()
	if solves1 != 1 {
		t.Fatalf("first session solved %d base power flows, want 1", solves1)
	}

	cloneBase := model.CloneCount()
	sess2 := sessionWorkload(t, eng)
	ptdf2, ybus2, topo2 := builds()

	if ptdf2 != ptdf1 {
		t.Fatalf("second session rebuilt PTDF: %d -> %d", ptdf1, ptdf2)
	}
	if ybus2 != ybus1 || topo2 != topo1 {
		t.Fatalf("second session rebuilt Ybus/topology: ybus %d -> %d, topo %d -> %d", ybus1, ybus2, topo1, topo2)
	}
	if solves2 := basePFSolves(); solves2 != solves1 {
		t.Fatalf("second session re-solved the base power flow: %d -> %d", solves1, solves2)
	}
	if s, h := acopf("solve"), acopf("hit"); s != 1 || h != 1 {
		t.Fatalf("cold ACOPF solves/hits over two sessions = %d/%d, want 1/1", s, h)
	}
	// LoadCase returns an API-compat clone; beyond that, the second
	// session's state access is clone-free (the per-call Network() zero-
	// clone contract is pinned exactly in the session tests).
	if d := model.CloneCount() - cloneBase; d > 8 {
		t.Fatalf("second session cloned %d networks; the serving path should stay near zero", d)
	}
	if _, err := modifyBusLoadTool(sess2, eng).Fn(map[string]any{"bus": 7.0, "p_mw": 25.0}); err != nil {
		t.Fatal(err)
	}
	if creates2 := opfCheckouts(t, eng, "create"); creates2 != creates1 {
		t.Fatalf("second session compiled a fresh KKT context: creates %d -> %d", creates1, creates2)
	}
	if opfCheckouts(t, eng, "reuse") == reuses1 {
		t.Fatal("second session's what-if never checked the pooled KKT context out")
	}
	// The pooled KKT context compiled exactly once across both sessions —
	// the "zero symbolic/pattern work in session two" guarantee.
	n, _ := eng.Pristine("case30")
	kkt := eng.AcquireOPF(eng.Artifacts(n).Sig)
	if kkt.Compiles() != 1 {
		t.Fatalf("shared KKT context compiled %d times across two sessions, want 1", kkt.Compiles())
	}
}

// TestSensitivitySweepReusesPooledKKT: the load-sensitivity tool's impact
// re-solves must run in the engine's pooled solver context — zero fresh
// KKT contexts and zero pattern compilations beyond the base solve —
// proven by exact counters, like the PR 5 engine tests.
func TestSensitivitySweepReusesPooledKKT(t *testing.T) {
	eng := engine.New()
	sess := session.NewWithEngine(nil, eng)
	if _, err := sess.LoadCase("case30"); err != nil {
		t.Fatal(err)
	}
	sol, _, err := solveWithRecovery(sess, eng, nil)
	if err != nil || !sol.Solved {
		t.Fatalf("acopf: %v", err)
	}
	sess.SetACOPF(sol)
	creates, reuses := opfCheckouts(t, eng, "create"), opfCheckouts(t, eng, "reuse")
	if creates != 1 {
		t.Fatalf("base solve created %d KKT contexts, want 1", creates)
	}

	tool := loadSensitivityTool(sess, eng)
	out, err := tool.Fn(map[string]any{
		"buses":    []any{7.0, 21.0, 30.0},
		"delta_mw": 2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := out.(map[string]any)
	if !ok || res["solved_probes"].(int) != 3 {
		t.Fatalf("sensitivity sweep did not solve all probes: %+v", out)
	}

	if after := opfCheckouts(t, eng, "create"); after != creates {
		t.Fatalf("sensitivity sweep compiled a private KKT context: creates %d -> %d", creates, after)
	}
	if opfCheckouts(t, eng, "reuse") == reuses {
		t.Fatal("sensitivity sweep never checked the pooled KKT context out")
	}
	n, err := sess.Network()
	if err != nil {
		t.Fatal(err)
	}
	kkt := eng.AcquireOPF(eng.Artifacts(n).Sig)
	if kkt.Compiles() != 1 {
		t.Fatalf("pooled KKT context compiled %d patterns across base solve + 3-bus sweep, want 1",
			kkt.Compiles())
	}
}
