package engine

import (
	"errors"
	"sync"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/opf"
)

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
	st := e.Stats()
	if st.PristineMisses != 1 || st.PristineHits != 1 {
		t.Fatalf("pristine hits/misses = %d/%d, want 1/1", st.PristineHits, st.PristineMisses)
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
	st := e.Stats()
	if st.YbusBuilds != 1 || st.TopoBuilds != 1 || st.PTDFBuilds != 1 {
		t.Fatalf("builds ybus/topo/ptdf = %d/%d/%d, want 1/1/1",
			st.YbusBuilds, st.TopoBuilds, st.PTDFBuilds)
	}

	// A structural change recompiles under a new key.
	n3 := n.Clone()
	n3.Branches[0].InService = false
	a3 := e.Artifacts(n3)
	if a3 == a1 {
		t.Fatal("structural change must map to a fresh artifact set")
	}
	a3.Ybus()
	if got := e.Stats().YbusBuilds; got != 2 {
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
	st := e.Stats()
	if st.OPFCreates != 1 || st.OPFReuses != 1 {
		t.Fatalf("opf creates/reuses = %d/%d, want 1/1", st.OPFCreates, st.OPFReuses)
	}
	// Checkin publishes the KKT factorizations the solves ran, and takes
	// them: the context has nothing left to report.
	refactors := e.Metrics().Counter("gridmind_opf_kkt_factorizations_total", "", "kind", "refactor")
	if refactors.Value() == 0 {
		t.Fatal("checkin published no KKT refactorizations")
	}
	if r, p := c2.TakeFactorizations(); r != 0 || p != 0 {
		t.Fatalf("context still reports %d/%d factorizations after checkin, want 0/0", r, p)
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
	st := e.Stats()
	if st.BasePFSolves != 1 || st.BasePFHits != 1 {
		t.Fatalf("base pf solves/hits = %d/%d, want 1/1", st.BasePFSolves, st.BasePFHits)
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
	if st := e.Stats(); st.YbusBuilds != 1 || st.PTDFBuilds != 1 || st.BasePFSolves != 1 {
		t.Fatalf("concurrent access built more than once: %+v", st)
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
