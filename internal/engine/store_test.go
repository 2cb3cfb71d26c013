package engine

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gridmind/internal/contingency"
	"gridmind/internal/powerflow"
)

// warmSweep runs an engine-threaded N-1 sweep on the engine's pristine
// case57, the exact shape a fleet worker runs per shard: the state's sweep
// pool, which draws the shared Ybus, topology, PTDF and ordering cache from
// the engine.
func warmSweep(t *testing.T, e *Engine) (*contingency.ResultSet, *powerflow.Result) {
	t.Helper()
	n, err := e.Pristine("case57")
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.BasePF("case57", n)
	if err != nil || !base.Converged {
		t.Fatalf("base power flow: %v (converged=%v)", err, base != nil && base.Converged)
	}
	rs, err := contingency.Analyze(n, base, contingency.Options{Workers: 1, DCScreen: true, Pool: e.SweepPool("case57")})
	if err != nil {
		t.Fatal(err)
	}
	return rs, base
}

// equalResultSets pins two sweeps to each other: structural fields exact,
// metrics to 1e-9 — the store contract is that a warmed engine reproduces
// the cold engine's results, not merely similar ones.
func equalResultSets(t *testing.T, want, got *contingency.ResultSet) {
	t.Helper()
	if len(want.Outages) != len(got.Outages) || want.Screened != got.Screened {
		t.Fatalf("sweep shape differs: %d/%d outages, %d/%d screened",
			len(want.Outages), len(got.Outages), want.Screened, got.Screened)
	}
	near := func(a, b float64, what string, k int) {
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("outage %d: %s differs: %v vs %v", k, what, a, b)
		}
	}
	for k := range want.Outages {
		w, g := &want.Outages[k], &got.Outages[k]
		if w.Branch != g.Branch || w.Converged != g.Converged || w.Islanded != g.Islanded ||
			w.Algorithm != g.Algorithm || len(w.Overloads) != len(g.Overloads) ||
			len(w.VoltViols) != len(g.VoltViols) {
			t.Fatalf("outage %d: structural fields differ: %+v vs %+v", k, w, g)
		}
		near(w.MaxLoadingPct, g.MaxLoadingPct, "max loading", k)
		near(w.MinVoltagePU, g.MinVoltagePU, "min voltage", k)
		near(w.LoadShedMW, g.LoadShedMW, "load shed", k)
		near(w.Severity, g.Severity, "severity", k)
	}
}

func TestArtifactStoreRoundTrip(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Cold engine: compile everything, run the sweep (populating the
	// ordering cache), persist.
	cold := New()
	wantRS, wantBase := warmSweep(t, cold)
	n, err := cold.Pristine("case57")
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.SaveArtifacts(store, n); err != nil {
		t.Fatal(err)
	}
	if saves := count(t, cold, storeSaves); saves != 1 {
		t.Fatalf("store saves = %d, want 1", saves)
	}

	// Fresh engine in a "new process": warm from the store, then run the
	// identical sweep. The warmed engine must perform ZERO Ybus, topology
	// and PTDF builds, zero ordering computations and zero KKT context
	// creations — counters, not timings.
	warm := New()
	wn, err := warm.Pristine("case57")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := warm.WarmFrom(store, wn)
	if err != nil || !ok {
		t.Fatalf("WarmFrom = %v, %v; want hit", ok, err)
	}
	gotRS, gotBase := warmSweep(t, warm)

	ybus, topo, ptdf := count(t, warm, ybusBuilds), count(t, warm, topoBuilds), count(t, warm, ptdfBuilds)
	if ybus != 0 || topo != 0 || ptdf != 0 {
		t.Fatalf("warmed engine compiled artifacts: ybus=%d topo=%d ptdf=%d, want 0/0/0", ybus, topo, ptdf)
	}
	if creates := count(t, warm, opfCheckouts, "result", "create"); creates != 0 {
		t.Fatalf("warmed engine created %d KKT contexts during a sweep, want 0", creates)
	}
	hits, misses, errs := count(t, warm, storeLoads, "result", "hit"), count(t, warm, storeLoads, "result", "miss"), count(t, warm, storeLoads, "result", "error")
	if hits != 1 || misses != 0 || errs != 0 {
		t.Fatalf("store load counters hit/miss/error = %d/%d/%d, want 1/0/0", hits, misses, errs)
	}
	if miss := warm.Artifacts(wn).Ordering().Misses(); miss != 0 {
		t.Fatalf("warmed engine computed %d orderings, want 0", miss)
	}

	// Differential pin: warmed results reproduce the cold engine's.
	if math.Abs(wantBase.MinVm-gotBase.MinVm) > 1e-9 {
		t.Fatalf("base min voltage differs: %v vs %v", wantBase.MinVm, gotBase.MinVm)
	}
	equalResultSets(t, wantRS, gotRS)
}

func TestArtifactStoreMissIsNotAnError(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	n, err := e.Pristine("case30")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := e.WarmFrom(store, n)
	if ok || err != nil {
		t.Fatalf("WarmFrom on empty store = %v, %v; want miss, nil", ok, err)
	}
	if misses, errs := count(t, e, storeLoads, "result", "miss"), count(t, e, storeLoads, "result", "error"); misses != 1 || errs != 0 {
		t.Fatalf("miss/error counters = %d/%d, want 1/0", misses, errs)
	}
}

// storeFile returns the single artifact file the store holds.
func storeFile(t *testing.T, store *Store) string {
	t.Helper()
	ents, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("store holds %d files, want 1", len(ents))
	}
	return filepath.Join(store.Dir(), ents[0].Name())
}

func TestArtifactStoreCorruptFileFallsBackToCompile(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := New()
	warmSweep(t, cold)
	n, _ := cold.Pristine("case57")
	if err := cold.SaveArtifacts(store, n); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte: the checksum must catch it.
	path := storeFile(t, store)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e := New()
	en, err := e.Pristine("case57")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := e.WarmFrom(store, en)
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("WarmFrom on corrupt file = %v, %v; want miss + ErrCorrupt", ok, err)
	}
	if errs := count(t, e, storeLoads, "result", "error"); errs != 1 {
		t.Fatalf("store error counter = %d, want 1", errs)
	}

	// The engine stays usable: it compiles cold and the sweep still runs.
	rs, _ := warmSweep(t, e)
	if len(rs.Outages) == 0 {
		t.Fatal("fallback sweep produced no outages")
	}
	if count(t, e, ybusBuilds) == 0 {
		t.Fatal("fallback must have compiled the Ybus")
	}
}

func TestArtifactStoreVersionMismatchFallsBack(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := New()
	warmSweep(t, cold)
	n, _ := cold.Pristine("case57")
	if err := cold.SaveArtifacts(store, n); err != nil {
		t.Fatal(err)
	}

	// Bump the header version field: a future-format file must read as a
	// version mismatch, not as garbage.
	path := storeFile(t, store)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8] = StoreVersion + 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e := New()
	en, _ := e.Pristine("case57")
	ok, err := e.WarmFrom(store, en)
	if ok || !errors.Is(err, ErrStoreVersion) {
		t.Fatalf("WarmFrom on version-skewed file = %v, %v; want miss + ErrStoreVersion", ok, err)
	}
	rs, _ := warmSweep(t, e)
	if len(rs.Outages) == 0 {
		t.Fatal("fallback sweep produced no outages")
	}
}

func TestArtifactStoreTruncatedHeader(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := New()
	warmSweep(t, cold)
	n, _ := cold.Pristine("case57")
	if err := cold.SaveArtifacts(store, n); err != nil {
		t.Fatal(err)
	}
	path := storeFile(t, store)
	if err := os.WriteFile(path, []byte("GM"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New()
	en, _ := e.Pristine("case57")
	if ok, err := e.WarmFrom(store, en); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("WarmFrom on truncated file = %v, %v; want miss + ErrCorrupt", ok, err)
	}
}
