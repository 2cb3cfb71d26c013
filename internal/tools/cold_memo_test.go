package tools

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"gridmind/internal/engine"
	"gridmind/internal/opf"
	"gridmind/internal/session"
)

// coldRegistry returns the paper's tools plus the extensions on a new
// session bound to eng.
func coldRegistry(t *testing.T, eng *engine.Engine) (*Registry, *session.Context) {
	t.Helper()
	sess := session.NewWithEngine(nil, eng)
	return sessionTools(t, sess, eng), sess
}

// sessionTools returns the paper's tools plus the extensions on sess.
func sessionTools(t *testing.T, sess *session.Context, eng *engine.Engine) *Registry {
	t.Helper()
	r := NewGridMind(sess, eng)
	if err := RegisterExtensions(r, sess, eng); err != nil {
		t.Fatal(err)
	}
	return r
}

// solveTool invokes solve_acopf_case and returns the stored reply and the
// tool message, both as JSON.
func solveTool(t *testing.T, r *Registry, caseName string) (reply, msg []byte) {
	t.Helper()
	v, raw, err := r.Invoke(ToolSolveACOPF, map[string]any{"case_name": caseName})
	if err != nil {
		t.Fatal(err)
	}
	reply, err = json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return reply, raw
}

// provenanceCount counts a session's provenance entries of one tool.
func provenanceCount(sess *session.Context, tool string) int {
	k := 0
	for _, p := range sess.Provenance() {
		if p.Tool == tool {
			k++
		}
	}
	return k
}

// TestColdACOPFHitMatchesMiss: a second session's solve_acopf_case on the
// same state is served from the engine's memo. Its reply and tool message
// are byte-identical to the first session's and to a solve on a separate
// engine, and it runs no KKT factorization.
func TestColdACOPFHitMatchesMiss(t *testing.T) {
	eng := engine.New()
	met := eng.Metrics()
	r1, _ := coldRegistry(t, eng)
	reply1, msg1 := solveTool(t, r1, "case118")
	factors := count(t, met, "gridmind_opf_kkt_factorizations_total")
	hits := count(t, met, "gridmind_engine_acopf_total", "result", "hit")

	r2, _ := coldRegistry(t, eng)
	reply2, msg2 := solveTool(t, r2, "case118")
	if d := count(t, met, "gridmind_opf_kkt_factorizations_total") - factors; d != 0 {
		t.Fatalf("second session ran %d KKT factorizations, want 0", d)
	}
	if d := count(t, met, "gridmind_engine_acopf_total", "result", "hit") - hits; d != 1 {
		t.Fatalf("second session added %d cold ACOPF hits, want 1", d)
	}
	r3, _ := coldRegistry(t, engine.New())
	reply3, msg3 := solveTool(t, r3, "case118")
	for i, got := range [][2][]byte{{reply2, msg2}, {reply3, msg3}} {
		if !bytes.Equal(got[0], reply1) || !bytes.Equal(got[1], msg1) {
			t.Fatalf("session %d's reply or tool message differs from the first session's:\n%s\n%s", i+2, got[1], msg1)
		}
	}
}

// TestColdACOPFSharedSolutionImmutable: the memoized solution is shared
// read-only. Its JSON is unchanged after another session holding it is
// spilled and restored, and after sessions run warm what-ifs from it (the
// restored copy and the shared pointer both) and assess its quality.
func TestColdACOPFSharedSolutionImmutable(t *testing.T) {
	eng := engine.New()
	_, s1 := coldRegistry(t, eng)
	if _, err := s1.LoadCase("case118"); err != nil {
		t.Fatal(err)
	}
	memo, _, err := solveWithRecovery(s1, eng, nil)
	if err != nil || !memo.Solved {
		t.Fatalf("cold solve: %v", err)
	}
	snapshot, err := json.Marshal(memo)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(after string) {
		t.Helper()
		got, err := json.Marshal(memo)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, snapshot) {
			t.Fatalf("memoized solution changed after %s", after)
		}
	}

	r2, s2 := coldRegistry(t, eng)
	solveTool(t, r2, "case118")
	if sol, _ := s2.ACOPF(); sol != memo {
		t.Fatal("second session's cold solve was not served from the memo")
	}
	var spill bytes.Buffer
	if err := s2.Persist(&spill); err != nil {
		t.Fatal(err)
	}
	restored, err := session.RestoreWithEngine(&spill, nil, eng)
	if err != nil {
		t.Fatal(err)
	}
	unchanged("a spill and restore")

	r3, s3 := coldRegistry(t, eng)
	solveTool(t, r3, "case118")
	for _, r := range []*Registry{sessionTools(t, restored, eng), r3} {
		for _, mw := range []float64{30, 35, 40} {
			if _, _, err := r.Invoke(ToolModifyBusLoad, map[string]any{"bus": 10.0, "p_mw": mw}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := r.Invoke(ToolAssessQuality, nil); err != nil {
			t.Fatal(err)
		}
	}
	unchanged("three warm what-ifs and a quality assessment")
	if sol, _ := s3.ACOPF(); sol == memo {
		t.Fatal("a warm what-if was served from the cold memo")
	}
}

// TestColdACOPFRecoveryNotedOnHit: a state whose cold interior-point solve
// falls back to dispatch, reached through ensureSolved, notes recovery in
// every session that reads it, the one that hit the memo included.
func TestColdACOPFRecoveryNotedOnHit(t *testing.T) {
	eng := engine.New()
	for i := 0; i < 2; i++ {
		r, sess := coldRegistry(t, eng)
		n, err := sess.LoadCase("case118")
		if err != nil {
			t.Fatal(err)
		}
		p, q := n.BusLoad(n.BusByID(64))
		if err := sess.Apply(session.Modification{Kind: session.ModSetLoad, BusID: 64, PMW: p + 8, QMVAr: q}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Invoke(ToolAssessQuality, nil); err != nil {
			t.Fatal(err)
		}
		if k := provenanceCount(sess, "recovery"); k != 1 {
			t.Fatalf("session %d: %d recovery provenance entries, want 1", i+1, k)
		}
		sol, recovered, err := solveWithRecovery(sess, eng, nil)
		if err != nil || !recovered || sol.Method == opf.MethodIPM {
			t.Fatalf("session %d: recovered=%v method=%q err=%v, want a dispatch fallback", i+1, recovered, sol.Method, err)
		}
		if used := solutionSummary(sol, recovered)["recovery_used"]; used != true {
			t.Fatalf("session %d: recovery_used = %v", i+1, used)
		}
	}
	if s, h := count(t, eng.Metrics(), "gridmind_engine_acopf_total", "result", "solve"),
		count(t, eng.Metrics(), "gridmind_engine_acopf_total", "result", "hit"); s != 1 || h != 3 {
		t.Fatalf("cold ACOPF solves/hits = %d/%d, want 1/3", s, h)
	}
}

// TestRaceColdACOPFOneSolve: eight sessions solving one state at once
// run one cold solve and share its solution. Run it under -race.
func TestRaceColdACOPFOneSolve(t *testing.T) {
	eng := engine.New()
	const K = 8
	sols := make([]*opf.Solution, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := range K {
		r, sess := coldRegistry(t, eng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, errs[i] = r.Invoke(ToolSolveACOPF, map[string]any{"case_name": "case57"}); errs[i] == nil {
				sols[i], _ = sess.ACOPF()
			}
		}()
	}
	wg.Wait()
	for i := range K {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if sols[i] != sols[0] {
			t.Fatalf("session %d holds its own cold solution", i)
		}
	}
	met := eng.Metrics()
	if s, h := count(t, met, "gridmind_engine_acopf_total", "result", "solve"), count(t, met, "gridmind_engine_acopf_total", "result", "hit"); s != 1 || h != K-1 {
		t.Fatalf("cold ACOPF solves/hits = %d/%d across %d sessions, want 1/%d", s, h, K, K-1)
	}
}

// TestColdWhatIfMemoized: a what-if with no fresh solution to start from
// (here, none at all) solves its new state cold, so a second session making
// the same what-if is served from the memo with a byte-identical reply.
func TestColdWhatIfMemoized(t *testing.T) {
	eng := engine.New()
	met := eng.Metrics()
	var replies [2][]byte
	for i := range replies {
		r, sess := coldRegistry(t, eng)
		if _, err := sess.LoadCase("case118"); err != nil {
			t.Fatal(err)
		}
		factors := count(t, met, "gridmind_opf_kkt_factorizations_total")
		_, raw, err := r.Invoke(ToolModifyBusLoad, map[string]any{"bus": 10.0, "p_mw": 35.0})
		if err != nil {
			t.Fatal(err)
		}
		replies[i] = raw
		if d := count(t, met, "gridmind_opf_kkt_factorizations_total") - factors; i == 1 && d != 0 {
			t.Fatalf("second session's cold what-if ran %d KKT factorizations, want 0", d)
		}
	}
	if !bytes.Equal(replies[0], replies[1]) {
		t.Fatalf("cold what-if replies differ:\n%s\n%s", replies[0], replies[1])
	}
	if s, h := count(t, met, "gridmind_engine_acopf_total", "result", "solve"), count(t, met, "gridmind_engine_acopf_total", "result", "hit"); s != 1 || h != 1 {
		t.Fatalf("cold ACOPF solves/hits = %d/%d, want 1/1", s, h)
	}
}

// TestWarmSolveNotMemoized: a warm what-if's solution depends on its start,
// so it never enters the memo. A second session that reaches the same state
// cold gets the reply a separate engine gives, not the warm one.
func TestWarmSolveNotMemoized(t *testing.T) {
	whatIf := func(eng *engine.Engine, solveFirst bool) []byte {
		t.Helper()
		r, sess := coldRegistry(t, eng)
		if _, err := sess.LoadCase("case118"); err != nil {
			t.Fatal(err)
		}
		if solveFirst {
			solveTool(t, r, "case118")
		}
		_, raw, err := r.Invoke(ToolModifyBusLoad, map[string]any{"bus": 10.0, "p_mw": 35.0})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	eng := engine.New()
	warm := whatIf(eng, true)
	cold := whatIf(eng, false)
	if want := whatIf(engine.New(), false); !bytes.Equal(cold, want) || bytes.Equal(cold, warm) {
		t.Fatalf("cold what-if after a warm one on its state:\n%s\nwant\n%s\n(warm reply %s)", cold, want, warm)
	}
}
