package engine

import (
	"errors"
	"sync"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/opf"
)

// Engine counter names, as /metrics serves them.
const (
	pristineLookups = "gridmind_engine_pristine_lookups_total"
	ybusBuilds      = "gridmind_engine_ybus_builds_total"
	topoBuilds      = "gridmind_engine_topology_builds_total"
	ptdfBuilds      = "gridmind_engine_ptdf_builds_total"
	opfCheckouts    = "gridmind_engine_opf_context_checkouts_total"
	basePF          = "gridmind_engine_base_pf_total"
	coldACOPFs      = "gridmind_engine_acopf_total"
	storeLoads      = "gridmind_engine_artifact_store_loads_total"
	storeSaves      = "gridmind_engine_artifact_store_saves_total"
)

// count reads one engine counter off its obs registry. A series that is
// not registered fails the test instead of reading as 0.
func count(t *testing.T, e *Engine, name string, labels ...string) int64 {
	t.Helper()
	v, ok := e.Metrics().Value(name, labels...)
	if !ok {
		t.Fatalf("no metric series %s%v", name, labels)
	}
	return int64(v)
}

func TestPristineCachedAndShared(t *testing.T) {
	e := New()
	a, err := e.Pristine("case14")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Pristine("IEEE 14")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("aliased case names must share one pristine instance")
	}
	hits, misses := count(t, e, pristineLookups, "result", "hit"), count(t, e, pristineLookups, "result", "miss")
	if misses != 1 || hits != 1 {
		t.Fatalf("pristine hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if _, err := e.Pristine("case9999"); err == nil {
		t.Fatal("unknown case must error")
	}
}

func TestStructSigIgnoresLoadsAndDispatch(t *testing.T) {
	n := cases.MustLoad("case30")
	sig := StructSig(n)

	mod := n.Clone()
	mod.Loads[0].P *= 1.5
	mod.Gens[0].P += 10
	if StructSig(mod) != sig {
		t.Fatal("load/dispatch changes must keep the structural signature")
	}

	outaged := n.Clone()
	outaged.Branches[3].InService = false
	if StructSig(outaged) == sig {
		t.Fatal("a branch outage must change the structural signature")
	}

	genOff := n.Clone()
	for g := range genOff.Gens {
		if genOff.Gens[g].InService {
			genOff.Gens[g].InService = false
			break
		}
	}
	if StructSig(genOff) == sig {
		t.Fatal("a generator status change must change the structural signature")
	}
}

func TestArtifactsBuiltOncePerStructure(t *testing.T) {
	e := New()
	n, _ := e.Pristine("case30")
	a1 := e.Artifacts(n)
	y1, topo1 := a1.Ybus(), a1.Topology()
	m1, err := a1.PTDF()
	if err != nil {
		t.Fatal(err)
	}

	// A second, content-identical network (another session's replay) maps
	// to the same artifact set without any rebuild.
	n2 := n.Clone()
	a2 := e.Artifacts(n2)
	if a2 != a1 {
		t.Fatal("same structure must share one artifact set")
	}
	m2, _ := a2.PTDF()
	if a2.Ybus() != y1 || a2.Topology() != topo1 || m2 != m1 {
		t.Fatal("artifacts must be the identical shared instances")
	}
	ybus, topo, ptdf := count(t, e, ybusBuilds), count(t, e, topoBuilds), count(t, e, ptdfBuilds)
	if ybus != 1 || topo != 1 || ptdf != 1 {
		t.Fatalf("builds ybus/topo/ptdf = %d/%d/%d, want 1/1/1", ybus, topo, ptdf)
	}

	// A structural change recompiles under a new key.
	n3 := n.Clone()
	n3.Branches[0].InService = false
	a3 := e.Artifacts(n3)
	if a3 == a1 {
		t.Fatal("structural change must map to a fresh artifact set")
	}
	a3.Ybus()
	if got := count(t, e, ybusBuilds); got != 2 {
		t.Fatalf("ybus builds after structural change = %d, want 2", got)
	}
}

func TestOPFPoolCheckoutCheckin(t *testing.T) {
	e := New()
	n, _ := e.Pristine("case14")
	sig := e.Artifacts(n).Sig

	c1 := e.AcquireOPF(sig)
	if _, err := opf.SolveACOPF(n, opf.Options{Context: c1}); err != nil {
		t.Fatal(err)
	}
	if c1.Compiles() != 1 {
		t.Fatalf("first solve compiles = %d, want 1", c1.Compiles())
	}
	e.ReleaseOPF(sig, c1)

	c2 := e.AcquireOPF(sig)
	if c2 != c1 {
		t.Fatal("checkin/checkout must recycle the context")
	}
	if _, err := opf.SolveACOPF(n, opf.Options{Context: c2}); err != nil {
		t.Fatal(err)
	}
	if c2.Compiles() != 1 {
		t.Fatalf("pooled re-solve compiled again: compiles = %d, want 1", c2.Compiles())
	}
	e.ReleaseOPF(sig, c2)
	creates, reuses := count(t, e, opfCheckouts, "result", "create"), count(t, e, opfCheckouts, "result", "reuse")
	if creates != 1 || reuses != 1 {
		t.Fatalf("opf creates/reuses = %d/%d, want 1/1", creates, reuses)
	}
	// Checkin publishes the KKT factorizations the solves ran, and takes
	// them: the context has nothing left to report.
	if count(t, e, "gridmind_opf_kkt_factorizations_total") == 0 {
		t.Fatal("checkin published no KKT factorizations")
	}
	if n := c2.TakeFactorizations(); n != 0 {
		t.Fatalf("context still reports %d factorizations after checkin, want 0", n)
	}
}

func TestBasePFMemoizedPerState(t *testing.T) {
	e := New()
	n, _ := e.Pristine("case30")
	r1, err := e.BasePF("state-a", n)
	if err != nil || !r1.Converged {
		t.Fatalf("base pf: %v", err)
	}
	r2, err := e.BasePF("state-a", n)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("same state must share one base power flow")
	}
	solves, hits := count(t, e, basePF, "result", "solve"), count(t, e, basePF, "result", "hit")
	if solves != 1 || hits != 1 {
		t.Fatalf("base pf solves/hits = %d/%d, want 1/1", solves, hits)
	}
}

// TestColdACOPFMemoizedPerState: a state's cold solve runs once, its
// solution, recovery flag and error are served to every later request of
// the state, and another state solves on its own.
func TestColdACOPFMemoizedPerState(t *testing.T) {
	e := New()
	n, _ := e.Pristine("case30")
	solves := 0
	solve := func(n *model.Network) (*opf.Solution, bool, error) {
		solves++
		sol, err := opf.SolveACOPF(n, opf.Options{})
		return sol, true, err
	}
	s1, rec1, err := e.ColdACOPF("state-a", n, solve)
	if err != nil || !s1.Solved || !rec1 {
		t.Fatalf("cold acopf: solved=%v recovered=%v err=%v", s1 != nil && s1.Solved, rec1, err)
	}
	s2, rec2, err := e.ColdACOPF("state-a", n, solve)
	if err != nil || s2 != s1 || !rec2 {
		t.Fatalf("same state must share one cold solution (shared=%v recovered=%v err=%v)", s2 == s1, rec2, err)
	}
	errSolve := errors.New("no solver converged")
	for i := 0; i < 2; i++ {
		if _, _, err := e.ColdACOPF("state-b", n, func(*model.Network) (*opf.Solution, bool, error) {
			solves++
			return nil, true, errSolve
		}); err != errSolve {
			t.Fatalf("request %d of a failing state: err %v, want the memoized %v", i, err, errSolve)
		}
	}
	if hits, misses := count(t, e, coldACOPFs, "result", "hit"), count(t, e, coldACOPFs, "result", "solve"); solves != 2 || misses != 2 || hits != 2 {
		t.Fatalf("cold acopf ran %d solves, counted %d solves / %d hits, want 2/2/2", solves, misses, hits)
	}
}

// TestOPFPoolKeysBounded: every branch outage is a new structure, and the
// OPF context pool keeps contexts of at most maxSweepStates of them.
func TestOPFPoolKeysBounded(t *testing.T) {
	e := New()
	pristine, _ := e.Pristine("case118")
	const structures = 80
	sigs := make([]string, structures)
	for i := range sigs {
		n := pristine.Clone()
		n.Branches[i].InService = false
		sigs[i] = StructSig(n)
		e.ReleaseOPF(sigs[i], e.AcquireOPF(sigs[i]))
	}
	before := count(t, e, opfCheckouts, "result", "reuse")
	for _, sig := range sigs {
		e.ReleaseOPF(sig, e.AcquireOPF(sig))
	}
	if held := count(t, e, opfCheckouts, "result", "reuse") - before; held > int64(e.maxSweepStates) {
		t.Fatalf("OPF pool held contexts of %d structures, cap %d", held, e.maxSweepStates)
	}
}

// TestEngineConcurrentAccess hammers every engine surface from many
// goroutines; run with -race, it pins the store's concurrency contract.
func TestEngineConcurrentAccess(t *testing.T) {
	e := New()
	n, err := e.Pristine("case57")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				a := e.Artifacts(n)
				y := a.Ybus()
				if y.N != len(n.Buses) {
					errs[w] = errBadArtifact
					return
				}
				a.Topology()
				if _, err := a.PTDF(); err != nil {
					errs[w] = err
					return
				}
				c := e.AcquireOPF(a.Sig)
				e.ReleaseOPF(a.Sig, c)
				e.SweepPool("state")
				if _, err := e.BasePF("state", n); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	ybus, ptdf, solves := count(t, e, ybusBuilds), count(t, e, ptdfBuilds), count(t, e, basePF, "result", "solve")
	if ybus != 1 || ptdf != 1 || solves != 1 {
		t.Fatalf("concurrent access built more than once: ybus/ptdf/base-pf = %d/%d/%d", ybus, ptdf, solves)
	}
}

var errBadArtifact = errors.New("engine test: bad artifact dimensions")

func TestSweepPoolMapBounded(t *testing.T) {
	e := New()
	e.maxSweepStates = 4
	for i := 0; i < 10; i++ {
		e.SweepPool(string(rune('a' + i)))
	}
	e.mu.Lock()
	size := len(e.sweeps)
	e.mu.Unlock()
	if size > 4 {
		t.Fatalf("sweep-pool map grew to %d, cap 4", size)
	}
}
