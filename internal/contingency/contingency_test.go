package contingency

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/obs"
	"gridmind/internal/powerflow"
)

func solveBase(t *testing.T, n *model.Network) *powerflow.Result {
	t.Helper()
	res, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// analyzeOne is AnalyzeOne for tests that pass no aliases: any error fails
// the test.
func analyzeOne(t *testing.T, n *model.Network, base *powerflow.Result, k int, opts Options) *OutageResult {
	t.Helper()
	out, err := AnalyzeOne(n, base, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAnalyzeCase30FullSweep(t *testing.T) {
	n := cases.MustLoad("case30")
	base := solveBase(t, n)
	rs, err := Analyze(n, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Outages) != len(n.InServiceBranches()) {
		t.Fatalf("analyzed %d outages, want %d", len(rs.Outages), len(n.InServiceBranches()))
	}
	stats := rs.Summarize()
	if stats.Total != len(rs.Outages) {
		t.Fatalf("stats total %d", stats.Total)
	}
	// Every outcome is one of the four classes.
	if stats.Secure+stats.WithOverload+stats.Islanding+stats.Unsolved != stats.Total {
		t.Fatalf("classes don't partition: %+v", stats)
	}
	// The network must not be modified by the sweep.
	for k, br := range n.Branches {
		if !br.InService {
			t.Fatalf("branch %d left out of service", k)
		}
	}
}

func TestAnalyzeRequiresBase(t *testing.T) {
	n := cases.MustLoad("case30")
	if _, err := Analyze(n, nil, Options{}); err == nil {
		t.Fatal("expected ErrNoBase")
	}
	bad := &powerflow.Result{Converged: false}
	if _, err := Analyze(n, bad, Options{}); err == nil {
		t.Fatal("expected ErrNoBase for unconverged base")
	}
}

func TestIslandingDetected(t *testing.T) {
	// In the three-bus ring, removing one branch keeps connectivity; in a
	// radial spur it islands. Build a network with a radial load.
	n := cases.MustLoad("case14")
	base := solveBase(t, n)
	// Make bus 8 (index 7) radial: its only connection is branch 7-8
	// (index 13) in case14.
	out := analyzeOne(t, n, base, 13, Options{})
	if !out.Islanded {
		t.Fatal("expected islanding for the radial 7-8 transformer")
	}
	// Bus 8 carries no load, so shedding is zero but the island is real.
	if out.LoadShedMW != 0 {
		t.Fatalf("unexpected shed %v for unloaded island", out.LoadShedMW)
	}
}

func TestIslandingShedsLoad(t *testing.T) {
	n := cases.MustLoad("case14")
	// Attach load to bus 8 then island it.
	n.Loads = append(n.Loads, model.Load{Bus: 7, P: 25, Q: 5, InService: true})
	base := solveBase(t, n)
	out := analyzeOne(t, n, base, 13, Options{})
	if !out.Islanded || math.Abs(out.LoadShedMW-25) > 1e-9 {
		t.Fatalf("islanded=%v shed=%v, want 25 MW", out.Islanded, out.LoadShedMW)
	}
	if out.Severity < 25 {
		t.Fatalf("severity %v should include shed load", out.Severity)
	}
}

func TestSeverityOrdering(t *testing.T) {
	// An outage causing three overloads with 12 MW shed must outrank one
	// marginal overload (the paper's §3.2.3 example).
	a := &OutageResult{
		Converged: true,
		Overloads: []BranchLoading{
			{LoadingPct: 118}, {LoadingPct: 121}, {LoadingPct: 105},
		},
		LoadShedMW: 12,
	}
	b := &OutageResult{
		Converged: true,
		Overloads: []BranchLoading{{LoadingPct: 103}},
	}
	a.Severity = severity(a)
	b.Severity = severity(b)
	if a.Severity <= b.Severity {
		t.Fatalf("outage A (%v) must rank above B (%v)", a.Severity, b.Severity)
	}
}

func TestRankDeterministicAndComplete(t *testing.T) {
	n := cases.MustLoad("case118")
	base := solveBase(t, n)
	rs, err := Analyze(n, base, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1 := rs.Rank(Composite)
	r2 := rs.Rank(Composite)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("ranking is not deterministic")
		}
	}
	seen := make(map[int]bool)
	for _, i := range r1 {
		if seen[i] {
			t.Fatal("duplicate index in ranking")
		}
		seen[i] = true
	}
	if len(r1) != len(rs.Outages) {
		t.Fatal("ranking is not a permutation")
	}
	// Severity must be non-increasing under Composite.
	for i := 1; i < len(r1); i++ {
		if rs.Outages[r1[i-1]].Severity < rs.Outages[r1[i]].Severity {
			t.Fatal("composite ranking not sorted by severity")
		}
	}
}

func TestStrategiesCanDiverge(t *testing.T) {
	// Construct results where thermal-first and composite disagree:
	// one outage has a single extreme overload, another has a cluster of
	// moderate overloads plus shed load.
	rs := &ResultSet{Outages: []OutageResult{
		{Branch: 0, Converged: true, MaxLoadingPct: 165,
			Overloads: []BranchLoading{{LoadingPct: 165}}},
		{Branch: 1, Converged: true, MaxLoadingPct: 120,
			Overloads:  []BranchLoading{{LoadingPct: 120}, {LoadingPct: 118}, {LoadingPct: 112}},
			LoadShedMW: 30},
	}}
	for i := range rs.Outages {
		rs.Outages[i].Severity = severity(&rs.Outages[i])
	}
	if rs.Rank(Composite)[0] != 1 {
		t.Fatal("composite should prefer the clustered outage")
	}
	if rs.Rank(ThermalFirst)[0] != 0 {
		t.Fatal("thermal-first should prefer the extreme overload")
	}
}

func TestTopAndCriticalBranches(t *testing.T) {
	n := cases.MustLoad("case118")
	base := solveBase(t, n)
	rs, err := Analyze(n, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	top5 := rs.Top(5, Composite)
	if len(top5) != 5 {
		t.Fatalf("Top(5) returned %d", len(top5))
	}
	crit := rs.CriticalBranches(5, Composite)
	for i := range top5 {
		if crit[i] != top5[i].Branch {
			t.Fatal("CriticalBranches disagrees with Top")
		}
	}
	if mx := rs.MaxOverloadPct(5, Composite); mx < 100 {
		t.Fatalf("case118 top-5 max overload %v%%, expected >100%% (tight ratings by construction)", mx)
	}
	// Top beyond length clamps.
	if got := rs.Top(10_000, Composite); len(got) != len(rs.Outages) {
		t.Fatal("Top should clamp to available outages")
	}
}

func TestWarmStartOptionMatchesCold(t *testing.T) {
	n := cases.MustLoad("case30")
	base := solveBase(t, n)
	warm := analyzeOne(t, n, base, 0, Options{})
	cold := analyzeOne(t, n, base, 0, Options{NoWarmStart: true})
	if warm.Converged != cold.Converged {
		t.Fatal("warm/cold disagree on convergence")
	}
	if math.Abs(warm.MaxLoadingPct-cold.MaxLoadingPct) > 1e-4 {
		t.Fatalf("loading differs: warm %v cold %v", warm.MaxLoadingPct, cold.MaxLoadingPct)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c := NewCache()
	r := &OutageResult{Branch: 3, MaxLoadingPct: 123}
	key := Key("diffhash", "case30", 3)
	if _, ok := c.Get(key); ok {
		t.Fatal("unexpected hit")
	}
	c.Put(key, r)
	got, ok := c.Get(key)
	if !ok || got.MaxLoadingPct != 123 {
		t.Fatalf("cache miss or wrong value: %+v", got)
	}
	// Mutating the returned copy must not corrupt the cache.
	got.MaxLoadingPct = 999
	again, _ := c.Get(key)
	if again.MaxLoadingPct != 123 {
		t.Fatal("cache returned shared storage")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", hits, misses)
	}
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatal("Invalidate left entries")
	}
}

func TestAnalyzeUsesCache(t *testing.T) {
	n := cases.MustLoad("case30")
	base := solveBase(t, n)
	cache := NewCache()
	opts := Options{Cache: cache, CacheKeyPrefix: "v1"}
	rs1, err := Analyze(n, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != len(rs1.Outages) {
		t.Fatalf("cache has %d entries, want %d", cache.Len(), len(rs1.Outages))
	}
	_, missesBefore := cache.Stats()
	rs2, err := Analyze(n, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, missesAfter := cache.Stats()
	if missesAfter != missesBefore {
		t.Fatal("second sweep should be served entirely from cache")
	}
	for i := range rs1.Outages {
		if rs1.Outages[i].Severity != rs2.Outages[i].Severity {
			t.Fatal("cached results differ")
		}
	}
}

func TestParallelSweepMatchesSerial(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	serial, err := Analyze(n, base, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Analyze(n, base, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Outages {
		a, b := serial.Outages[i], parallel.Outages[i]
		if a.Branch != b.Branch || math.Abs(a.Severity-b.Severity) > 1e-9 {
			t.Fatalf("outage %d differs between serial and parallel", i)
		}
	}
}

func TestSubsetBranches(t *testing.T) {
	n := cases.MustLoad("case30")
	base := solveBase(t, n)
	rs, err := Analyze(n, base, Options{Branches: []int{0, 5, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Outages) != 3 {
		t.Fatalf("got %d outages, want 3", len(rs.Outages))
	}
	if rs.Outages[1].Branch != 5 {
		t.Fatal("branch order not preserved")
	}
}

func TestDescribeNarratives(t *testing.T) {
	for _, tc := range []struct {
		o    OutageResult
		want string
	}{
		{OutageResult{Islanded: true, LoadShedMW: 10}, "islands"},
		{OutageResult{Converged: false}, "collapse"},
		{OutageResult{Converged: true, Overloads: []BranchLoading{{LoadingPct: 120}}, MaxLoadingPct: 120}, "overload"},
		{OutageResult{Converged: true, MaxLoadingPct: 70, MinVoltagePU: 0.99}, "secure"},
	} {
		if got := tc.o.Describe(); !contains(got, tc.want) {
			t.Errorf("Describe() = %q, want substring %q", got, tc.want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// TestSweepNewtonTelemetry checks the sweep's Newton counters: every
// non-islanding outage of a case57 N-1 sweep starts on its worker's base
// factor, the factorizations left are far fewer than the outages, and a
// second sweep on the same pool adds to both counters.
func TestSweepNewtonTelemetry(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	met := obs.NewRegistry()
	opts := Options{Workers: 2, Pool: NewSweepPool(NewBase), Metrics: met}
	rs, err := Analyze(n, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	var solved int
	for _, o := range rs.Outages {
		if !o.Islanded {
			solved++
		}
	}
	facts := met.Counter("gridmind_contingency_factorizations_total", "", "kind", "n1")
	starts := met.Counter("gridmind_contingency_base_factor_starts_total", "", "kind", "n1")
	f1, s1 := facts.Value(), starts.Value()
	t.Logf("case57 N-1: %d AC-solved outages, %d factorizations, %d base-factor starts", solved, f1, s1)
	if s1 != int64(solved) {
		t.Fatalf("%d base-factor starts over %d AC-solved outages", s1, solved)
	}
	if f1 == 0 || f1 >= int64(solved) {
		t.Fatalf("%d factorizations over %d AC-solved outages", f1, solved)
	}
	if _, err := Analyze(n, base, opts); err != nil {
		t.Fatal(err)
	}
	if starts.Value() != 2*s1 || facts.Value() <= f1 {
		t.Fatalf("second sweep: counters at %d factorizations, %d base-factor starts", facts.Value(), starts.Value())
	}
}

// TestRecordSweepRepivots pins how a sweep publishes its repivots: the
// count lands on gridmind_contingency_repivots_total under the sweep's
// kind, and a sweep without one registers no series (nor, without a
// Q-relaxed outage, the Q-relaxed series).
func TestRecordSweepRepivots(t *testing.T) {
	met := obs.NewRegistry()
	recordSweep(met, "n2", 4, 1, SolveWork{Factorizations: 7, Repivots: 2})
	recordSweep(met, "n2", 4, 1, SolveWork{Factorizations: 3, Repivots: 1})
	if got, _ := met.Value("gridmind_contingency_repivots_total", "kind", "n2"); got != 3 {
		t.Fatalf("repivot counter at %v, want 3", got)
	}
	if got, _ := met.Value("gridmind_contingency_factorizations_total", "kind", "n2"); got != 10 {
		t.Fatalf("factorization counter at %v, want 10", got)
	}
	recordSweep(met, "n1", 4, 1, SolveWork{Factorizations: 3})
	if _, ok := met.Value("gridmind_contingency_repivots_total", "kind", "n1"); ok {
		t.Fatal("a sweep without repivots registered the repivot series")
	}
	if _, ok := met.Value("gridmind_contingency_q_relaxed_total", "kind", "n1"); ok {
		t.Fatal("a sweep without Q-relaxed outages registered the Q-relaxed series")
	}
}

// TestFallbackFactorizationsCounted pins what the factorization counter
// counts on a forced fallback: branch 0 of case14 and of case30 fails warm
// Q-limited Newton and solves by the Q-relaxed Newton from the case start
// profile, and the sweep's counter must carry both solves'
// factorizations. A fresh worker replays the two solves, so the expected
// count is exact. case14's are pinned: its failing solve runs its step
// budget (33 factorizations), the rescue takes 2.
func TestFallbackFactorizationsCounted(t *testing.T) {
	for _, tc := range []struct {
		name            string
		failing, rescue int // 0: not pinned
	}{{"case14", 33, 2}, {"case30", 0, 0}} {
		n := cases.MustLoad(tc.name)
		base := solveBase(t, n)

		w := newWorker(n, NewBase(n))
		w.view.OutBranch(0)
		nr, err := w.Solve(powerflow.Options{EnforceQLimits: true, Warm: &base.Voltages})
		if err == nil && nr.Converged {
			t.Fatalf("%s branch 0 solves by Newton; pick an outage that forces the fallback", tc.name)
		}
		relaxed, err := w.Solve(powerflow.Options{})
		if err != nil || !relaxed.Converged {
			t.Fatalf("%s Q-relaxed fallback: err %v, converged %v", tc.name, err, relaxed.Converged)
		}
		if tc.failing != 0 && (nr.Factorizations != tc.failing || relaxed.Factorizations != tc.rescue) {
			t.Fatalf("%s branch 0: %d + %d factorizations, want %d + %d", tc.name, nr.Factorizations, relaxed.Factorizations, tc.failing, tc.rescue)
		}

		met := obs.NewRegistry()
		rs, err := Analyze(n, base, Options{Workers: 1, Branches: []int{0}, Metrics: met})
		if err != nil {
			t.Fatal(err)
		}
		if o := rs.Outages[0]; !o.QLimitsRelaxed || o.Algorithm != powerflow.NewtonRaphson.String() {
			t.Fatalf("%s branch 0 solved by %s, relaxed %v; want the Q-relaxed Newton fallback", tc.name, o.Algorithm, o.QLimitsRelaxed)
		}
		got, _ := met.Value("gridmind_contingency_factorizations_total", "kind", "n1")
		if want := float64(nr.Factorizations + relaxed.Factorizations); got != want {
			t.Fatalf("%s: counter at %v factorizations, want %v (Newton %d + Q-relaxed %d)", tc.name, got, want, nr.Factorizations, relaxed.Factorizations)
		}
	}
}

// TestQRelaxedRecordLabelled: in the case14 N-1 sweep, the one outage whose
// Q-limited solve fails (branch 0) comes back converged with
// "q_limits_relaxed": true in its JSON and moves
// gridmind_contingency_q_relaxed_total by one; every other record's JSON
// has no such key, so records the Q-limited solve answers keep their shape.
func TestQRelaxedRecordLabelled(t *testing.T) {
	n := cases.MustLoad("case14")
	met := obs.NewRegistry()
	rs, err := Analyze(n, solveBase(t, n), Options{Workers: 1, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rs.Outages {
		body, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		key := bytes.Contains(body, []byte(`"q_limits_relaxed"`))
		switch {
		case o.Branch == 0 && !(o.Converged && bytes.Contains(body, []byte(`"q_limits_relaxed":true`))):
			t.Fatalf("branch 0 is not labelled as a converged Q-relaxed record: %s", body)
		case o.Branch != 0 && key:
			t.Fatalf("branch %d carries the Q-relaxed key: %s", o.Branch, body)
		}
	}
	if got, _ := met.Value("gridmind_contingency_q_relaxed_total", "kind", "n1"); got != 1 {
		t.Fatalf("Q-relaxed counter at %v, want 1", got)
	}
}
