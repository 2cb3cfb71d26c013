package gridmind_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"gridmind"
	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/fleet"
	"gridmind/internal/model"
	"gridmind/internal/obs"
	"gridmind/internal/opf"
	"gridmind/internal/powerflow"
	"gridmind/internal/scenario"
	"gridmind/internal/scopf"
	"gridmind/internal/session"
)

// Numeric-core benchmarks tracked in BENCH_numeric.json: Ybus assembly,
// a full Newton solve, the N-1 branch and generation sweeps, the N-2
// screening pipeline, the interior-point ACOPF, the SCOPF loop, the
// session snapshot cache, the multi-session serving path, the N-k
// cascade sweep, the Monte Carlo reliability loop and the distributed
// fleet sweep, each over the paper-scale cases. Regenerate the JSON with
// the command its "description" records (it pins -cpu 1 -benchtime=10x).
// `gridmind-bench -benchguard BENCH_numeric.json` runs the guarded subset
// of these benchmarks with `go test -cpu 1` and fails CI on a regression.

func benchBuildYbus(b *testing.B, caseName string) {
	n := cases.MustLoad(caseName)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if y := model.BuildYbus(n); y.N != len(n.Buses) {
			b.Fatal("bad ybus")
		}
	}
}

func BenchmarkBuildYbusCase57(b *testing.B)  { benchBuildYbus(b, "case57") }
func BenchmarkBuildYbusCase118(b *testing.B) { benchBuildYbus(b, "case118") }
func BenchmarkBuildYbusCase300(b *testing.B) { benchBuildYbus(b, "case300") }

// benchNewtonSolve times the one-shot Newton from a flat start with Q-limit
// enforcement — what serving call sites run. The case's stored profile is
// already converged (zero iterations: classify + Ybus + pattern compile,
// never a factorization), so a solve that took no iteration is a fatal.
func benchNewtonSolve(b *testing.B, caseName string) {
	n := cases.MustLoad(caseName)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := powerflow.Solve(n, powerflow.Options{FlatStart: true, EnforceQLimits: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged || res.Iterations == 0 {
			b.Fatalf("converged=%v after %d iterations: the bench must run Newton", res.Converged, res.Iterations)
		}
	}
}

func BenchmarkNewtonSolveCase57(b *testing.B)  { benchNewtonSolve(b, "case57") }
func BenchmarkNewtonSolveCase118(b *testing.B) { benchNewtonSolve(b, "case118") }
func BenchmarkNewtonSolveCase300(b *testing.B) { benchNewtonSolve(b, "case300") }

// benchN1Sweep times the full N-1 branch sweep from the Q-limited base
// case; the bench_test.go ablations reuse it with their own options.
func benchN1Sweep(b *testing.B, caseName string, opts contingency.Options) {
	n := cases.MustLoad(caseName)
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := contingency.Analyze(n, base, opts)
		if err != nil {
			b.Fatal(err)
		}
		if opts.DCScreen && rs.Screened == 0 {
			b.Fatal("screening inactive")
		}
	}
}

func BenchmarkN1SweepCase57(b *testing.B)      { benchN1Sweep(b, "case57", contingency.Options{}) }
func BenchmarkN1SweepCase118Full(b *testing.B) { benchN1Sweep(b, "case118", contingency.Options{}) }
func BenchmarkN1SweepCase300(b *testing.B)     { benchN1Sweep(b, "case300", contingency.Options{}) }

// BenchmarkGenSweepCase57 measures the N-1 generation sweep — since the
// gen-outage fast path, a zero-clone workload that re-derives the PV/PQ
// classification in place instead of materializing a network per unit.
func BenchmarkGenSweepCase57(b *testing.B) {
	n := cases.MustLoad("case57")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := contingency.AnalyzeGenOutages(n, contingency.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkN2ScreenCase57 measures the N-2 screening pipeline on the
// seeded critical candidate set: pair seeding and zero-clone AC
// verification of every pair. Workers pinned to 1 and the
// candidate set capped so allocs/op are machine-independent (the CI guard
// protocol); the N-1 seeding sweep runs outside the measured loop.
func BenchmarkN2ScreenCase57(b *testing.B) {
	n := cases.MustLoad("case57")
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		b.Fatal(err)
	}
	n1, err := contingency.Analyze(n, base, contingency.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := contingency.AnalyzeN2(n, base, n1, contingency.N2Options{
			Options:  contingency.Options{Workers: 1},
			MaxPairs: 200,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Outages) == 0 {
			b.Fatal("empty N-2 sweep")
		}
	}
}

func benchACOPF(b *testing.B, caseName string) {
	n := cases.MustLoad(caseName)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol, err := opf.SolveACOPF(n, opf.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Solved {
			b.Fatal("not solved")
		}
	}
}

func BenchmarkACOPFCase14(b *testing.B)  { benchACOPF(b, "case14") }
func BenchmarkACOPFCase30(b *testing.B)  { benchACOPF(b, "case30") }
func BenchmarkACOPFCase57(b *testing.B)  { benchACOPF(b, "case57") }
func BenchmarkACOPFCase118(b *testing.B) { benchACOPF(b, "case118") }
func BenchmarkACOPFCase300(b *testing.B) { benchACOPF(b, "case300") }

// BenchmarkACOPFPooledCase118 is the serving path's warm what-if: a
// +2 MW change at bus 60 re-solved through one Context that holds the
// case's compiled problem, warm-started from the base solution. Unlike
// BenchmarkACOPFCase118, which compiles its problem on every op, each op
// here compiles nothing: no Ybus, no layout, no KKT pattern.
func BenchmarkACOPFPooledCase118(b *testing.B) {
	n := cases.MustLoad("case118")
	ctx := opf.NewContext()
	cold, err := opf.SolveACOPF(n, opf.Options{Context: ctx})
	if err != nil {
		b.Fatal(err)
	}
	m := n.Clone()
	m.Loads = append(m.Loads, model.Load{Bus: m.BusByID(60), P: 2, InService: true})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol, err := opf.SolveACOPF(m, opf.Options{Context: ctx, Start: cold})
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Solved {
			b.Fatal("not solved")
		}
	}
}

// benchSession builds a case57 session carrying a typical what-if diff
// log (the serving-path state reconstruction workload).
func benchSession(b *testing.B) *session.Context {
	b.Helper()
	c := session.NewWithEngine(nil, nil)
	if _, err := c.LoadCase("case57"); err != nil {
		b.Fatal(err)
	}
	mods := []session.Modification{
		{Kind: session.ModSetLoad, BusID: 9, PMW: 40, QMVAr: 12},
		{Kind: session.ModScaleLoad, Factor: 1.05},
		{Kind: session.ModOutageBranch, Branch: 3},
		{Kind: session.ModRestoreBranch, Branch: 3},
		{Kind: session.ModSetGenP, Gen: 1, PMW: 55},
	}
	for _, m := range mods {
		if err := c.Apply(m); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkSessionNetworkSnapshot prices Context.Network() on the
// snapshot-cache hit path — what every tool call pays per state access
// since the multi-session engine (zero clones, zero replays).
func BenchmarkSessionNetworkSnapshot(b *testing.B) {
	c := benchSession(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Network(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionNetworkReplay prices the same access with the snapshot
// dropped each iteration — the pre-engine clone+replay cost the cache
// removes from every tool call.
func BenchmarkSessionNetworkReplay(b *testing.B) {
	c := benchSession(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.DropSnapshot()
		if _, err := c.Network(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentAsk8 measures multi-session serving throughput: 8
// sessions sharing one artifact engine answer "Solve IEEE 14" concurrently
// (each ask runs a full coordinator round and an interior-point ACOPF).
// ns/op is the per-ask wall time at 8-way session concurrency.
func BenchmarkConcurrentAsk8(b *testing.B) {
	eng := gridmind.NewEngine()
	const k = 8
	sessions := make([]*gridmind.GridMind, k)
	for i := range sessions {
		sessions[i] = gridmind.New(gridmind.Options{Engine: eng})
	}
	// Warm one session so compilation happens outside the measured region
	// (steady-state serving is the quantity of interest).
	if _, err := sessions[0].Ask(context.Background(), "Solve IEEE 14"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	var next int64
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if int(atomic.AddInt64(&next, 1)) > b.N {
					return
				}
				ex, err := sessions[w].Ask(context.Background(), "Solve IEEE 14")
				if err != nil || !ex.Success {
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		b.Fatal("concurrent ask failed")
	}
}

// benchWarmAsk times one ask of a warm case57 session in process. The
// session has solved the case and run its N-1 sweep, so the ask runs no
// solver: planner, simulated model, tool layer and schema checks are its
// whole cost (bench/e2e's chat_light, without HTTP).
func benchWarmAsk(b *testing.B, query string) {
	gm := gridmind.New(gridmind.Options{Engine: gridmind.NewEngine()})
	for _, q := range []string{"Solve IEEE 57", "Run N-1 contingency analysis on IEEE 57 and show the top 5", query} {
		if ex, err := gm.Ask(context.Background(), q); err != nil || !ex.Success {
			b.Fatalf("warm-up %q failed: %v", q, err)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		if ex, err := gm.Ask(context.Background(), query); err != nil || !ex.Success {
			b.Fatalf("%q failed: %v", query, err)
		}
	}
}

// BenchmarkAskTopK: a cached top-k lookup, chat_light's slowest class.
func BenchmarkAskTopK(b *testing.B) {
	benchWarmAsk(b, "Show the top 7 most critical contingencies")
}

// BenchmarkAskStatus: the network status ask, chat_light's commonest class.
func BenchmarkAskStatus(b *testing.B) { benchWarmAsk(b, "What is the current network status?") }

// basePool builds one outage base of n with NewBase and a pool that runs
// every study on it, so a benchmark builds the base outside its loop.
func basePool(n *model.Network) (*contingency.SweepPool, contingency.Base) {
	base := contingency.NewBase(n)
	return contingency.NewSweepPool(func(*model.Network) contingency.Base { return base }), base
}

// BenchmarkCascadeCase57 measures the full N-k cascade sweep with the
// lazy-LODF DC pre-screen: every in-service branch seeds a
// trip-threshold propagation to depth 3 on pooled zero-clone contexts.
// Workers pinned to 1 and the outage base (Ybus/topology/PTDF) built
// outside the measured loop, matching the CI guard protocol.
func BenchmarkCascadeCase57(b *testing.B) {
	n := cases.MustLoad("case57")
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		b.Fatal(err)
	}
	pool, outageBase := basePool(n)
	if _, err := outageBase.PTDF(); err != nil {
		b.Fatal(err)
	}
	opts := scenario.Options{Pool: pool, DCScreen: true, Workers: 1}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sw, err := scenario.Sweep(n, base, opts)
		if err != nil {
			b.Fatal(err)
		}
		if sw.Seeds == 0 || sw.Screened == 0 {
			b.Fatal("degenerate sweep")
		}
	}
}

// BenchmarkMCReliability measures the seeded Monte Carlo reliability
// loop on case57: 64 draws per op through the cascade engine on pooled
// contexts, single worker (the machine-independent guard protocol).
func BenchmarkMCReliability(b *testing.B) {
	n := cases.MustLoad("case57")
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		b.Fatal(err)
	}
	pool, _ := basePool(n)
	opts := scenario.Options{Pool: pool, Workers: 1}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mc, err := scenario.RunMC(n, base, scenario.MCOptions{
			Samples:          64,
			Seed:             2026,
			BranchOutageProb: 0.01,
			GenOutageProb:    0.005,
			LoadSigma:        0.03,
			Cascade:          opts,
		})
		if err != nil {
			b.Fatal(err)
		}
		if mc.Samples != 64 {
			b.Fatal("bad sample count")
		}
	}
}

func BenchmarkSCOPFCase57(b *testing.B) {
	n := cases.MustLoad("case57")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Workers pinned to 1 so allocs/op does not depend on GOMAXPROCS
		// even outside the -cpu 1 baseline protocol. MaxRounds 2 bounds the
		// loop the same way on every machine.
		res, err := scopf.Solve(n, scopf.Options{Screen: true, MaxRounds: 2, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds < 1 {
			b.Fatal("no rounds")
		}
	}
}

// BenchmarkRegistryHotPath measures the obs instrument hot path every
// engine lookup, gateway attempt and tool call rides: a pre-registered
// counter Inc plus a latency-histogram Observe. The contract is zero
// allocations per op — registration allocates once up front, publishing
// never does — and the CI benchguard pins the 0-alloc baseline exactly.
func BenchmarkRegistryHotPath(b *testing.B) {
	met := obs.NewRegistry()
	c := met.Counter("bench_hot_total", "hot-path benchmark counter", "path", "hot")
	h := met.Histogram("bench_hot_seconds", "hot-path benchmark histogram", nil, "path", "hot")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(0.0042)
	}
}

// BenchmarkFleetSweepCase57 prices the distributed N-1 sweep end to end:
// deterministic shard split, HTTP/JSON dispatch to two workers with
// independent engines, engine-threaded shard solves and the offset-based
// merge. The workers' engines are warmed by an untimed first sweep, so
// the delta against BenchmarkN1SweepCase57 reads as pure fleet protocol
// overhead (serialization + loopback HTTP + merge). Sweep IDs rotate per
// iteration — a repeated ID would hit the workers' idempotency memo and
// benchmark the replay path instead of the sweep.
func BenchmarkFleetSweepCase57(b *testing.B) {
	urls := make([]string, 2)
	for i := range urls {
		w := fleet.NewWorker(fmt.Sprintf("bench-w%d", i), engine.New(), nil, obs.NewRegistry())
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		urls[i] = srv.URL
	}
	coord, err := fleet.NewCoordinator(fleet.Config{Workers: urls})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New()
	n, err := eng.Pristine("case57")
	if err != nil {
		b.Fatal(err)
	}
	branches := n.InServiceBranches()
	ctx := context.Background()
	if _, err := coord.SweepN1(ctx, "bench-fleet-warm", "case57", branches, gridmindFleetOpts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := coord.SweepN1(ctx, fmt.Sprintf("bench-fleet-%d", i), "case57", branches, gridmindFleetOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Outages) != len(branches) {
			b.Fatal("short sweep")
		}
	}
}

// gridmindFleetOpts mirrors the scenario CI smoke configuration.
var gridmindFleetOpts = fleet.SweepOptions{DCScreen: true}
