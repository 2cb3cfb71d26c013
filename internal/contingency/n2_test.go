package contingency

import (
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
)

// n1Sweep runs the branch sweep the N-2 pipeline seeds from.
func n1Sweep(t *testing.T, n *model.Network) (*ResultSet, *model.Network) {
	t.Helper()
	base := solveBase(t, n)
	rs, err := Analyze(n, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rs, n
}

func TestSeedN2PairsProperties(t *testing.T) {
	n := cases.MustLoad("case57")
	n1, _ := n1Sweep(t, n)
	opts := N2Options{TopK: 8}
	pairs := SeedN2Pairs(n, n1, opts)
	if len(pairs) == 0 {
		t.Fatal("no pairs seeded")
	}
	// Deterministic: a second call yields the identical list.
	again := SeedN2Pairs(n, n1, opts)
	if len(again) != len(pairs) {
		t.Fatalf("non-deterministic seeding: %d vs %d", len(pairs), len(again))
	}
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatalf("pair %d differs between runs: %+v vs %+v", i, pairs[i], again[i])
		}
	}
	// No duplicates, ordered identities, in-service branches only.
	seen := map[N2Pair]bool{}
	for _, p := range pairs {
		if p.Gen >= 0 {
			t.Fatalf("unexpected mixed pair without GenSeeds: %+v", p)
		}
		if p.BranchA >= p.BranchB {
			t.Fatalf("pair not ordered: %+v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %+v", p)
		}
		seen[p] = true
		if !n.Branches[p.BranchA].InService || !n.Branches[p.BranchB].InService {
			t.Fatalf("pair %+v references out-of-service branch", p)
		}
	}
	// All pairs among the top-K critical branches must be present.
	top := n1.CriticalBranches(opts.TopK, Composite)
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			a, b := top[i], top[j]
			if a > b {
				a, b = b, a
			}
			if !seen[N2Pair{BranchA: a, BranchB: b, Gen: -1}] {
				t.Fatalf("missing top-K pair (%d,%d)", a, b)
			}
		}
	}
	// All pairs among flagged (islanding/overload) branches must be present.
	var flagged []int
	for i := range n1.Outages {
		if o := &n1.Outages[i]; o.Islanded || len(o.Overloads) > 0 {
			flagged = append(flagged, o.Branch)
		}
	}
	for i := 0; i < len(flagged); i++ {
		for j := i + 1; j < len(flagged); j++ {
			a, b := flagged[i], flagged[j]
			if a > b {
				a, b = b, a
			}
			if !seen[N2Pair{BranchA: a, BranchB: b, Gen: -1}] {
				t.Fatalf("missing flagged pair (%d,%d)", a, b)
			}
		}
	}
	// MaxPairs keeps a prefix of the ranked list.
	capped := SeedN2Pairs(n, n1, N2Options{TopK: 8, MaxPairs: 5})
	if len(capped) != 5 {
		t.Fatalf("MaxPairs=5 kept %d", len(capped))
	}
	for i := range capped {
		if capped[i] != pairs[i] {
			t.Fatalf("cap changed ordering at %d: %+v vs %+v", i, capped[i], pairs[i])
		}
	}
	// Mixed seeding pairs every valid generator with each top-K branch.
	mixed := SeedN2Pairs(n, n1, N2Options{TopK: 3, GenSeeds: []int{1}})
	found := 0
	for _, p := range mixed {
		if p.Gen == 1 {
			found++
		}
	}
	if found != 3 {
		t.Fatalf("gen seed produced %d mixed pairs, want 3", found)
	}
}

// TestN2RejectsMalformedPairs: caller-supplied candidate sets are
// validated up front — no pair may silently degrade to a different
// contingency downstream.
func TestN2RejectsMalformedPairs(t *testing.T) {
	n := cases.MustLoad("case14")
	base := solveBase(t, n)
	slackGen := -1
	for g, gen := range n.Gens {
		if gen.Bus == n.SlackBus() && gen.InService {
			slackGen = g
		}
	}
	bad := [][]N2Pair{
		{{BranchA: 0, BranchB: 0, Gen: -1}},   // same branch twice
		{{BranchA: 0, BranchB: -1, Gen: -1}},  // no second element
		{{BranchA: 0, BranchB: 999, Gen: -1}}, // out of range
		{{BranchA: -1, BranchB: 1, Gen: -1}},  // out of range
		{{BranchA: 0, BranchB: 1, Gen: 1}},    // three elements
		{{BranchA: 0, BranchB: -1, Gen: 99}},  // gen out of range
	}
	if slackGen >= 0 {
		bad = append(bad, []N2Pair{{BranchA: 0, BranchB: -1, Gen: slackGen}}) // only slack machine
	}
	for i, pairs := range bad {
		if _, err := AnalyzeN2(n, base, nil, N2Options{Pairs: pairs}); err == nil {
			t.Errorf("malformed pair set %d (%+v) accepted", i, pairs)
		}
	}
	// A well-formed explicit set is accepted.
	if _, err := AnalyzeN2(n, base, nil, N2Options{Pairs: []N2Pair{{BranchA: 0, BranchB: 1, Gen: -1}}}); err != nil {
		t.Fatalf("valid explicit pair rejected: %v", err)
	}
}

// TestN2DifferentialVsCloneReference is the pair analogue of the branch
// harness: on the full seeded candidate set of case57, the parallel
// zero-clone pair sweep must reproduce a sequential loop of brute-force
// clone-based references pair for pair to 1e-9 — and in particular agree
// on the top-10 ranking.
func TestN2DifferentialVsCloneReference(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	n1, err := Analyze(n, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A couple of mixed pairs ride along so the gen path is differentially
	// covered inside the pair machinery too.
	pairs := SeedN2Pairs(n, n1, N2Options{TopK: 10, GenSeeds: []int{1, 3}})
	if len(pairs) < 45 {
		t.Fatalf("only %d candidate pairs seeded", len(pairs))
	}

	got, err := AnalyzeN2(n, base, n1, N2Options{
		Options: Options{Workers: 4, Pool: NewSweepPool(NewBase)}, Pairs: pairs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Outages) != len(pairs) {
		t.Fatalf("sweep returned %d records for %d pairs", len(got.Outages), len(pairs))
	}
	ref := &ResultSet{Outages: make([]OutageResult, len(pairs))}
	opts := filledOptions()
	for i, p := range pairs {
		ref.Outages[i] = *analyzeClone(n, base, p, opts)
	}
	for i := range ref.Outages {
		r, g := &ref.Outages[i], &got.Outages[i]
		if r.Branch2 != g.Branch2 || r.Gen2 != g.Gen2 || !r.IsPair || !g.IsPair {
			t.Fatalf("pair %d identity mismatch: %+v vs %+v", i, pairs[i], g)
		}
		if err := diffOutage(r, g); err != nil {
			t.Fatalf("pair %d (%+v): view path diverges from clone reference: %v", i, pairs[i], err)
		}
	}
	// Top-10 ranked pairs agree exactly.
	rr, gr := ref.Rank(Composite), got.Rank(Composite)
	for i := 0; i < 10 && i < len(rr); i++ {
		if pairs[rr[i]] != pairs[gr[i]] {
			t.Fatalf("rank %d differs: %+v vs %+v", i, pairs[rr[i]], pairs[gr[i]])
		}
	}
}

// TestN2ZeroClone: the production pipeline copies no network at all —
// no deep clone and no materialized view, on the failure escalation
// (Newton with the Q limits relaxed, then the load-shed estimate) too. case30's seeded
// pairs escalate often, and the test requires that they still do.
func TestN2ZeroClone(t *testing.T) {
	n := cases.MustLoad("case30")
	base := solveBase(t, n)
	n1, err := Analyze(n, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := SeedN2Pairs(n, n1, N2Options{TopK: 10})
	clones0, mats0 := model.CloneCount(), model.MaterializeCount()
	rs, err := AnalyzeN2(n, base, n1, N2Options{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	if c, m := model.CloneCount()-clones0, model.MaterializeCount()-mats0; c != 0 || m != 0 {
		t.Fatalf("AnalyzeN2 cloned %d and materialized %d networks, want 0 and 0", c, m)
	}
	var escalated int
	for i := range rs.Outages {
		if o := &rs.Outages[i]; o.QLimitsRelaxed || (!o.Islanded && !o.Converged) {
			escalated++
		}
	}
	if escalated == 0 {
		t.Fatal("no pair escalated past Newton; the corpus must exercise the failure path")
	}
	t.Logf("%d pairs, %d escalated past Newton", len(rs.Outages), escalated)
}

// TestN2RankingFeedsRecommendations: pair records flow through the
// existing ranking/summary/recommendation layers unmodified.
func TestN2ResultSetIntegration(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	n1, err := Analyze(n, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := AnalyzeN2(n, base, n1, N2Options{TopK: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Outages) == 0 {
		t.Fatal("no pair results")
	}
	stats := rs.Summarize()
	if stats.Total != len(rs.Outages) {
		t.Fatalf("summary total %d != %d", stats.Total, len(rs.Outages))
	}
	top := rs.Top(5, Composite)
	for i := 1; i < len(top); i++ {
		if top[i].Severity > top[i-1].Severity {
			t.Fatal("top pairs not ordered by severity")
		}
	}
	for _, o := range top {
		if !o.IsPair {
			t.Fatalf("non-pair record in N-2 set: %+v", o)
		}
		if o.Describe() == "" {
			t.Fatal("empty pair narrative")
		}
	}
	// Recommend must accept pair sets (evidence counting works the same).
	_ = rs.Recommend(3)
}

// TestN2CacheRoundTrip: pair keys live in their own keyspace and replay.
func TestN2CacheRoundTrip(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	n1, err := Analyze(n, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	opts := N2Options{TopK: 5, Options: Options{Cache: cache, CacheKeyPrefix: "t"}}
	first, err := AnalyzeN2(n, base, n1, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits0, _ := cache.Stats()
	second, err := AnalyzeN2(n, base, n1, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := cache.Stats()
	if hits-hits0 != len(first.Outages) {
		t.Fatalf("replay hit %d of %d", hits-hits0, len(first.Outages))
	}
	for i := range first.Outages {
		if err := diffOutage(&first.Outages[i], &second.Outages[i]); err != nil {
			t.Fatalf("cached replay diverges at %d: %v", i, err)
		}
	}
	// Pair keys never collide with single-outage keys.
	if PairKey("p", "c", N2Pair{BranchA: 3, BranchB: 7, Gen: -1}) == Key("p", "c", 3) {
		t.Fatal("pair key collides with single-outage key")
	}
}
