package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/obs"
)

// testWorker boots one fleet worker over its own fresh engine — its own
// process, as far as the protocol is concerned.
func testWorker(t *testing.T, id string, store *engine.Store) *httptest.Server {
	t.Helper()
	w := NewWorker(id, engine.New(), store, obs.NewRegistry())
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// localSweep is the single-process reference: the exact engine-threaded
// N-1 sweep a gridmind-server session runs.
func localSweep(t *testing.T, caseName string, opts SweepOptions) (*contingency.ResultSet, []int) {
	t.Helper()
	eng := engine.New()
	n, err := eng.Pristine(caseName)
	if err != nil {
		t.Fatal(err)
	}
	base, err := eng.BasePF(caseName, n)
	if err != nil || !base.Converged {
		t.Fatalf("base power flow: %v", err)
	}
	copts := contingency.Options{DCScreen: opts.DCScreen, Pool: eng.SweepPool(caseName)}
	rs, err := contingency.Analyze(n, base, copts)
	if err != nil {
		t.Fatal(err)
	}
	return rs, n.InServiceBranches()
}

// pinResultSets asserts the fleet result reproduces the single-process
// result: every structural field exact, every metric within 1e-9, and the
// severity ranking bit-identical.
func pinResultSets(t *testing.T, want, got *contingency.ResultSet) {
	t.Helper()
	if want.CaseName != got.CaseName || len(want.Outages) != len(got.Outages) || want.Screened != got.Screened {
		t.Fatalf("sweep shape differs: case %q/%q, %d/%d outages, %d/%d screened",
			want.CaseName, got.CaseName, len(want.Outages), len(got.Outages), want.Screened, got.Screened)
	}
	near := func(a, b float64, what string, k int) {
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("outage %d: %s differs: %v vs %v", k, what, a, b)
		}
	}
	near(want.BaseMaxLoadingPct, got.BaseMaxLoadingPct, "base max loading", -1)
	near(want.BaseMinVoltagePU, got.BaseMinVoltagePU, "base min voltage", -1)
	for k := range want.Outages {
		w, g := &want.Outages[k], &got.Outages[k]
		if w.Branch != g.Branch || w.FromBusID != g.FromBusID || w.ToBusID != g.ToBusID ||
			w.IsXfmr != g.IsXfmr || w.Converged != g.Converged || w.Islanded != g.Islanded ||
			w.IsPair != g.IsPair || w.Branch2 != g.Branch2 || w.Gen2 != g.Gen2 ||
			w.Algorithm != g.Algorithm ||
			len(w.Overloads) != len(g.Overloads) || len(w.VoltViols) != len(g.VoltViols) {
			t.Fatalf("outage %d: structural fields differ:\n%+v\n%+v", k, w, g)
		}
		near(w.MaxLoadingPct, g.MaxLoadingPct, "max loading", k)
		near(w.MinVoltagePU, g.MinVoltagePU, "min voltage", k)
		near(w.LoadShedMW, g.LoadShedMW, "load shed", k)
		near(w.Severity, g.Severity, "severity", k)
	}
	wr, gr := want.Rank(contingency.Composite), got.Rank(contingency.Composite)
	for i := range wr {
		if wr[i] != gr[i] {
			t.Fatalf("ranking diverges at position %d: outage %d vs %d", i, wr[i], gr[i])
		}
	}
}

func coordinatorFor(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSplitContiguous(t *testing.T) {
	cases := []struct {
		n, shards int
		want      []shardRange
	}{
		{0, 4, nil},
		{5, 0, nil},
		{3, 5, []shardRange{{0, 1}, {1, 1}, {2, 1}}},
		{10, 3, []shardRange{{0, 4}, {4, 3}, {7, 3}}},
		{8, 4, []shardRange{{0, 2}, {2, 2}, {4, 2}, {6, 2}}},
	}
	for _, c := range cases {
		got := splitContiguous(c.n, c.shards)
		if len(got) != len(c.want) {
			t.Fatalf("split(%d,%d) = %v, want %v", c.n, c.shards, got, c.want)
		}
		covered := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("split(%d,%d)[%d] = %v, want %v", c.n, c.shards, i, got[i], c.want[i])
			}
			if got[i].Off != covered {
				t.Fatalf("split(%d,%d) not contiguous at shard %d", c.n, c.shards, i)
			}
			covered += got[i].Len
		}
		if c.n > 0 && c.shards > 0 && covered != c.n {
			t.Fatalf("split(%d,%d) covers %d items, want %d", c.n, c.shards, covered, c.n)
		}
	}
}

func TestFleetN1MatchesSingleProcess(t *testing.T) {
	opts := SweepOptions{DCScreen: true}
	want, branches := localSweep(t, "case57", opts)

	w1 := testWorker(t, "w1", nil)
	w2 := testWorker(t, "w2", nil)
	met := obs.NewRegistry()
	coord := coordinatorFor(t, Config{Workers: []string{w1.URL, w2.URL}, Metrics: met})

	got, err := coord.SweepN1(context.Background(), "sweep-1", "case57", branches, opts)
	if err != nil {
		t.Fatal(err)
	}
	pinResultSets(t, want, got)
}

func TestFleetN2MatchesSingleProcess(t *testing.T) {
	opts := SweepOptions{DCScreen: true}
	n1, _ := localSweep(t, "case57", opts)

	// Seed the candidate pairs once, deterministically, exactly as the
	// coordinator's caller does.
	eng := engine.New()
	n, err := eng.Pristine("case57")
	if err != nil {
		t.Fatal(err)
	}
	base, err := eng.BasePF("case57", n)
	if err != nil {
		t.Fatal(err)
	}
	pairs := contingency.SeedN2Pairs(n, n1, contingency.N2Options{TopK: 5, MaxPairs: 40})
	if len(pairs) == 0 {
		t.Fatal("no N-2 candidate pairs seeded")
	}

	// Single-process reference over the same explicit pair set.
	copts := contingency.Options{DCScreen: opts.DCScreen, Pool: eng.SweepPool("case57")}
	want, err := contingency.AnalyzeN2(n, base, nil, contingency.N2Options{Options: copts, Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}

	w1 := testWorker(t, "w1", nil)
	w2 := testWorker(t, "w2", nil)
	coord := coordinatorFor(t, Config{Workers: []string{w1.URL, w2.URL}})
	// The coordinator exports only SweepN1; the worker's n2 shard path is
	// driven here with KindN2 requests through the same dispatch and merge.
	ranges := splitContiguous(len(pairs), coord.cfg.ShardsPerWorker*len(coord.cfg.Workers))
	reqs := make([]ShardRequest, len(ranges))
	for i, rg := range ranges {
		reqs[i] = ShardRequest{
			Version: ProtocolVersion,
			SweepID: "sweep-n2",
			Shard:   i,
			Shards:  len(ranges),
			Case:    "case57",
			Kind:    KindN2,
			Pairs:   pairs[rg.Off : rg.Off+rg.Len],
			Opts:    opts,
		}
	}
	got, err := coord.run(context.Background(), "case57", reqs, ranges, len(pairs))
	if err != nil {
		t.Fatal(err)
	}
	pinResultSets(t, want, got)
}

func TestFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	opts := SweepOptions{DCScreen: true}
	want, branches := localSweep(t, "case57", opts)

	for _, workers := range []int{1, 3} {
		urls := make([]string, workers)
		for i := range urls {
			urls[i] = testWorker(t, "w", nil).URL
		}
		coord := coordinatorFor(t, Config{Workers: urls})
		got, err := coord.SweepN1(context.Background(), "sweep-det", "case57", branches, opts)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		pinResultSets(t, want, got)
	}
}

// TestFleetWorkerDeathMidSweep kills one of two workers after its second
// shard — connection-refused from then on — and requires the sweep to
// complete on the survivor with identical results.
func TestFleetWorkerDeathMidSweep(t *testing.T) {
	opts := SweepOptions{DCScreen: true}
	want, branches := localSweep(t, "case57", opts)

	healthy := testWorker(t, "survivor", nil)

	dying := NewWorker("dying", engine.New(), nil, nil)
	var served int32
	var dyingSrv *httptest.Server
	dyingSrv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&served, 1) > 2 {
			// Simulate process death: drop the connection without a
			// response, then refuse everything (CloseClientConnections
			// kills in-flight conns; closing the listener refuses new
			// ones).
			dyingSrv.CloseClientConnections()
			dyingSrv.Listener.Close()
			return
		}
		dying.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(func() { dyingSrv.Close() })

	met := obs.NewRegistry()
	coord := coordinatorFor(t, Config{
		Workers:      []string{healthy.URL, dyingSrv.URL},
		Timeout:      30 * time.Second,
		RetryBackoff: 5 * time.Millisecond,
		Metrics:      met,
	})
	got, err := coord.SweepN1(context.Background(), "sweep-death", "case57", branches, opts)
	if err != nil {
		t.Fatal(err)
	}
	pinResultSets(t, want, got)
}

// TestFleetTimeoutRetry hangs a worker past the shard timeout; the
// coordinator must reassign its shards and still merge exactly.
func TestFleetTimeoutRetry(t *testing.T) {
	opts := SweepOptions{DCScreen: true}
	want, branches := localSweep(t, "case57", opts)

	healthy := testWorker(t, "fast", nil)
	hung := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Second) // far past the 200ms shard timeout
	}))
	t.Cleanup(hung.Close)

	coord := coordinatorFor(t, Config{
		Workers:      []string{healthy.URL, hung.URL},
		Timeout:      200 * time.Millisecond,
		Attempts:     10,
		RetryBackoff: 5 * time.Millisecond,
	})
	got, err := coord.SweepN1(context.Background(), "sweep-timeout", "case57", branches, opts)
	if err != nil {
		t.Fatal(err)
	}
	pinResultSets(t, want, got)
}

// TestFleetAllWorkersDeadFails verifies the attempt budget turns a fully
// dead fleet into an error instead of a hang.
func TestFleetAllWorkersDeadFails(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close() // connection refused from the start
	coord := coordinatorFor(t, Config{
		Workers:      []string{dead.URL},
		Attempts:     2,
		RetryBackoff: time.Millisecond,
	})
	_, err := coord.SweepN1(context.Background(), "sweep-dead", "case57", []int{0, 1, 2}, SweepOptions{})
	if err == nil {
		t.Fatal("sweep against a dead fleet succeeded")
	}
}

// TestWorkerIdempotentReplay posts the same shard twice and requires
// byte-identical responses without re-running the sweep.
func TestWorkerIdempotentReplay(t *testing.T) {
	met := obs.NewRegistry()
	w := NewWorker("w1", engine.New(), nil, met)
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)

	coord := coordinatorFor(t, Config{Workers: []string{srv.URL}})
	req := ShardRequest{
		Version: ProtocolVersion, SweepID: "replay", Shard: 0, Shards: 1,
		Case: "case30", Kind: KindN1, Branches: []int{0, 1, 2, 3},
	}
	first, err := coord.post(context.Background(), srv.URL, &req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := coord.post(context.Background(), srv.URL, &req)
	if err != nil {
		t.Fatal(err)
	}
	if w.shardsDup.Value() != 1 {
		t.Fatalf("duplicate counter = %d, want 1 (memo must replay, not re-run)", w.shardsDup.Value())
	}
	pinResultSets(t,
		&contingency.ResultSet{CaseName: first.CaseName, Outages: first.Outages, Screened: first.Screened,
			BaseMaxLoadingPct: first.BaseMaxLoadingPct, BaseMinVoltagePU: first.BaseMinVoltagePU},
		&contingency.ResultSet{CaseName: second.CaseName, Outages: second.Outages, Screened: second.Screened,
			BaseMaxLoadingPct: second.BaseMaxLoadingPct, BaseMinVoltagePU: second.BaseMinVoltagePU})
}

// shardStatus serves req through the worker handler h in-process and
// returns the HTTP status.
func shardStatus(t testing.TB, h http.Handler, req *ShardRequest) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard", bytes.NewReader(body)))
	return rec.Code
}

// TestWorkerRejectsBadRequests covers the protocol guardrails: every
// malformed request answers 400, including outages the case does not have
// (an out-of-range N-1 branch once panicked a sweep goroutine and took the
// whole worker down), and the same worker still serves a valid shard.
func TestWorkerRejectsBadRequests(t *testing.T) {
	h := NewWorker("w1", engine.New(), nil, nil).Handler()

	bad := []ShardRequest{
		{Version: ProtocolVersion + 1, SweepID: "s", Case: "case30", Kind: KindN1, Branches: []int{0}},
		{Version: ProtocolVersion, Case: "case30", Kind: KindN1, Branches: []int{0}},
		{Version: ProtocolVersion, SweepID: "s", Case: "case30", Kind: "n3", Branches: []int{0}},
		{Version: ProtocolVersion, SweepID: "s", Case: "case30", Kind: KindN1},
		{Version: ProtocolVersion, SweepID: "s", Case: "case30", Kind: KindN2, Branches: []int{0}},
		{Version: ProtocolVersion, SweepID: "s", Case: "case30", Kind: KindN1, Branches: []int{99999}},
		{Version: ProtocolVersion, SweepID: "s", Case: "case30", Kind: KindN1, Branches: []int{-1}},
		{Version: ProtocolVersion, SweepID: "s", Case: "case30", Kind: KindN2,
			Pairs: []contingency.N2Pair{{BranchA: 0, BranchB: 99999, Gen: -1}}},
	}
	for i := range bad {
		if code := shardStatus(t, h, &bad[i]); code != http.StatusBadRequest {
			t.Fatalf("bad request %d answered %d, want 400", i, code)
		}
	}
	ok := ShardRequest{Version: ProtocolVersion, SweepID: "s", Case: "case30", Kind: KindN1, Branches: []int{0, 1}}
	if code := shardStatus(t, h, &ok); code != http.StatusOK {
		t.Fatalf("valid shard after the bad ones answered %d, want 200", code)
	}
}

// TestWorkerRejectsOversizedBody caps the /shard body at maxShardBody: a
// valid request behind maxShardBody+1 bytes of leading whitespace answers
// 413 and counts as an errored shard, where an uncapped decoder would read
// on and run it.
func TestWorkerRejectsOversizedBody(t *testing.T) {
	met := obs.NewRegistry()
	h := NewWorker("w1", engine.New(), nil, met).Handler()
	req, err := json.Marshal(ShardRequest{Version: ProtocolVersion, SweepID: "s", Case: "case14", Kind: KindN1, Branches: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	body := io.MultiReader(strings.NewReader(strings.Repeat(" ", maxShardBody+1)), bytes.NewReader(req))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized shard body answered %d, want 413", rec.Code)
	}
	if v, _ := met.Value("gridmind_fleet_worker_shards_total", "result", "error"); v != 1 {
		t.Fatalf(`gridmind_fleet_worker_shards_total{result="error"} = %v, want 1`, v)
	}
}

// FuzzWorkerShard fuzzes the sweep kind and element indices of a case14
// shard request: whatever the input, the worker answers 200 or 400 and
// never panics. An N-1 shard carries branch a, plus b when b ≥ 0; an N-2
// shard carries the one pair (a, b, g). The seed corpus in
// testdata/fuzz/FuzzWorkerShard includes the out-of-range N-1 branch
// that once crashed the worker.
func FuzzWorkerShard(f *testing.F) {
	h := NewWorker("fuzz", engine.New(), nil, nil).Handler()
	var seq atomic.Int64
	f.Fuzz(func(t *testing.T, kind string, a, b, g int) {
		req := ShardRequest{
			Version: ProtocolVersion,
			SweepID: fmt.Sprintf("fuzz-%d", seq.Add(1)), // never an idempotent replay
			Case:    "case14",
			Kind:    kind,
		}
		if kind == KindN2 {
			req.Pairs = []contingency.N2Pair{{BranchA: a, BranchB: b, Gen: g}}
		} else {
			req.Branches = []int{a}
			if b >= 0 {
				req.Branches = append(req.Branches, b)
			}
		}
		if code := shardStatus(t, h, &req); code != http.StatusOK && code != http.StatusBadRequest {
			t.Fatalf("%+v answered %d, want 200 or 400", req, code)
		}
	})
}

// TestFleetStoreWarmedWorker runs a fleet sweep against a worker mounted
// on a pre-populated artifact store and asserts the worker compiled
// NOTHING: zero Ybus/topology/PTDF builds and zero ordering computations
// — the distributed analogue of the engine store round-trip test.
func TestFleetStoreWarmedWorker(t *testing.T) {
	store, err := engine.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Populate the store from a separate "seeding" process whose ordering
	// cache has seen both the base solve and the sweep dims.
	opts := SweepOptions{DCScreen: true}
	want, branches := localSweep(t, "case57", opts)
	seeder := engine.New()
	sn, err := seeder.Pristine("case57")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seeder.BasePF("case57", sn); err != nil {
		t.Fatal(err)
	}
	copts := contingency.Options{DCScreen: opts.DCScreen, Pool: seeder.SweepPool("case57")}
	sb, err := seeder.BasePF("case57", sn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := contingency.Analyze(sn, sb, copts); err != nil {
		t.Fatal(err)
	}
	if err := seeder.SaveArtifacts(store, sn); err != nil {
		t.Fatal(err)
	}

	// Cold worker process + warm store.
	eng := engine.New()
	w := NewWorker("warmed", eng, store, obs.NewRegistry())
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)

	coord := coordinatorFor(t, Config{Workers: []string{srv.URL}})
	got, err := coord.SweepN1(context.Background(), "sweep-warm", "case57", branches, opts)
	if err != nil {
		t.Fatal(err)
	}
	pinResultSets(t, want, got)

	ybus := engineCount(t, eng, "gridmind_engine_ybus_builds_total")
	topo := engineCount(t, eng, "gridmind_engine_topology_builds_total")
	ptdf := engineCount(t, eng, "gridmind_engine_ptdf_builds_total")
	kkt := engineCount(t, eng, "gridmind_engine_opf_context_checkouts_total", "result", "create")
	if ybus != 0 || topo != 0 || ptdf != 0 || kkt != 0 {
		t.Fatalf("warmed worker compiled: ybus=%d topo=%d ptdf=%d kkt=%d, want all 0", ybus, topo, ptdf, kkt)
	}
	if hits := engineCount(t, eng, "gridmind_engine_artifact_store_loads_total", "result", "hit"); hits != 1 {
		t.Fatalf("store hits = %d, want 1", hits)
	}
	n, err := eng.Pristine("case57")
	if err != nil {
		t.Fatal(err)
	}
	if miss := eng.Artifacts(n).Ordering().Misses(); miss != 0 {
		t.Fatalf("warmed worker computed %d orderings, want 0", miss)
	}
}

// engineCount reads one engine counter off its obs registry. A series
// that is not registered fails the test instead of reading as 0.
func engineCount(t *testing.T, eng *engine.Engine, name string, labels ...string) int64 {
	t.Helper()
	v, ok := eng.Metrics().Value(name, labels...)
	if !ok {
		t.Fatalf("no metric series %s%v", name, labels)
	}
	return int64(v)
}
