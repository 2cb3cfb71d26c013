package session

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"gridmind/internal/opf"
	"gridmind/internal/powerflow"
)

func fixedNow() time.Time { return time.Date(2025, 9, 2, 12, 0, 0, 0, time.UTC) }

func loaded(t *testing.T) *Context {
	t.Helper()
	c := NewWithEngine(fixedNow, nil)
	if _, err := c.LoadCase("case14"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLoadCaseResetsState(t *testing.T) {
	c := loaded(t)
	if c.CaseName() != "case14" {
		t.Fatalf("case name %q", c.CaseName())
	}
	if err := c.Apply(Modification{Kind: ModSetLoad, BusID: 9, PMW: 40, QMVAr: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadCase("case30"); err != nil {
		t.Fatal(err)
	}
	if len(c.Diffs()) != 0 {
		t.Fatal("diffs survived a case reload")
	}
}

func TestNetworkWithoutCase(t *testing.T) {
	c := NewWithEngine(fixedNow, nil)
	if _, err := c.Network(); err != ErrNoCase {
		t.Fatalf("err = %v, want ErrNoCase", err)
	}
	if err := c.Apply(Modification{Kind: ModScaleLoad, Factor: 1.1}); err != ErrNoCase {
		t.Fatalf("Apply err = %v", err)
	}
}

func TestApplySetLoadReplaysDeterministically(t *testing.T) {
	c := loaded(t)
	if err := c.Apply(Modification{Kind: ModSetLoad, BusID: 9, PMW: 50, QMVAr: 12}); err != nil {
		t.Fatal(err)
	}
	n, err := c.Network()
	if err != nil {
		t.Fatal(err)
	}
	p, q := n.BusLoad(n.BusByID(9))
	if p != 50 || q != 12 {
		t.Fatalf("bus 9 load %v/%v, want 50/12", p, q)
	}
	// The pristine case is untouched: reloading gives the original.
	n2, _ := c.Network()
	p2, _ := n2.BusLoad(n2.BusByID(9))
	if p2 != 50 {
		t.Fatal("replay is not deterministic")
	}
}

func TestApplyInvalidModificationsRejected(t *testing.T) {
	c := loaded(t)
	cases := []Modification{
		{Kind: ModSetLoad, BusID: 999, PMW: 10}, // unknown bus
		{Kind: ModScaleLoad, Factor: -1},        // bad factor
		{Kind: ModOutageBranch, Branch: 999},    // bad branch
		{Kind: ModSetGenP, Gen: 99, PMW: 10},    // bad gen
		{Kind: "bogus"},                         // unknown kind
		{Kind: ModOutageBranch, Branch: 13},     // islands bus 8 -> invalid network
	}
	for _, m := range cases {
		if err := c.Apply(m); err == nil {
			t.Errorf("%+v accepted", m)
		}
	}
	if len(c.Diffs()) != 0 {
		t.Fatal("rejected modifications leaked into the diff log")
	}
}

func TestOutageAndRestoreBranch(t *testing.T) {
	c := loaded(t)
	// Branch 0 (1-2) is redundant in case14, outage keeps connectivity.
	if err := c.Apply(Modification{Kind: ModOutageBranch, Branch: 0}); err != nil {
		t.Fatal(err)
	}
	n, _ := c.Network()
	if n.Branches[0].InService {
		t.Fatal("outage not applied")
	}
	if err := c.Apply(Modification{Kind: ModRestoreBranch, Branch: 0}); err != nil {
		t.Fatal(err)
	}
	n, _ = c.Network()
	if !n.Branches[0].InService {
		t.Fatal("restore not applied")
	}
}

func TestDiffHashChangesWithState(t *testing.T) {
	c := loaded(t)
	h0 := c.DiffHash()
	if err := c.Apply(Modification{Kind: ModScaleLoad, Factor: 1.05}); err != nil {
		t.Fatal(err)
	}
	h1 := c.DiffHash()
	if h0 == h1 {
		t.Fatal("hash did not change")
	}
	// Hash depends on state, not time: a fresh context with the same
	// diffs produces the same hash.
	c2 := loaded(t)
	if err := c2.Apply(Modification{Kind: ModScaleLoad, Factor: 1.05}); err != nil {
		t.Fatal(err)
	}
	if c2.DiffHash() != h1 {
		t.Fatal("hash not reproducible across sessions")
	}
}

func TestArtifactFreshness(t *testing.T) {
	c := loaded(t)
	sol := &opf.Solution{CaseName: "case14", Solved: true, ObjectiveCost: 8081}
	c.SetACOPF(sol)
	if _, fresh := c.ACOPF(); !fresh {
		t.Fatal("just-stored solution not fresh")
	}
	if err := c.Apply(Modification{Kind: ModScaleLoad, Factor: 1.01}); err != nil {
		t.Fatal(err)
	}
	got, fresh := c.ACOPF()
	if fresh {
		t.Fatal("solution still fresh after a modification")
	}
	if got == nil || got.ObjectiveCost != 8081 {
		t.Fatal("stale artifact value lost")
	}
}

func TestBasePFFreshness(t *testing.T) {
	c := loaded(t)
	c.SetBasePF(&powerflow.Result{Converged: true})
	if _, fresh := c.BasePF(); !fresh {
		t.Fatal("base PF not fresh")
	}
	_ = c.Apply(Modification{Kind: ModScaleLoad, Factor: 1.02})
	if _, fresh := c.BasePF(); fresh {
		t.Fatal("base PF survived state change")
	}
}

func TestProvenanceAccumulates(t *testing.T) {
	c := loaded(t)
	c.AddProvenance("test_tool", "did a thing")
	prov := c.Provenance()
	if len(prov) < 2 { // load_case + test_tool
		t.Fatalf("provenance entries %d", len(prov))
	}
	last := prov[len(prov)-1]
	if last.Tool != "test_tool" || last.DiffHash == "" || !last.At.Equal(fixedNow()) {
		t.Fatalf("provenance record %+v", last)
	}
}

func TestPersistRestoreRoundTrip(t *testing.T) {
	c := loaded(t)
	_ = c.Apply(Modification{Kind: ModSetLoad, BusID: 9, PMW: 45, QMVAr: 9, Note: "what-if"})
	c.SetACOPF(&opf.Solution{CaseName: "case14", Solved: true, ObjectiveCost: 8200.5})
	var buf bytes.Buffer
	if err := c.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "what-if") {
		t.Fatal("serialized session lacks diff note")
	}

	r, err := RestoreWithEngine(&buf, fixedNow, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.CaseName() != "case14" || len(r.Diffs()) != 1 {
		t.Fatalf("restored case %q with %d diffs", r.CaseName(), len(r.Diffs()))
	}
	n, err := r.Network()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := n.BusLoad(n.BusByID(9))
	if p != 45 {
		t.Fatalf("restored load %v, want 45", p)
	}
	sol, fresh := r.ACOPF()
	if sol == nil || sol.ObjectiveCost != 8200.5 {
		t.Fatal("restored solution missing")
	}
	if !fresh {
		t.Fatal("restored solution should be fresh (same diff state)")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := RestoreWithEngine(strings.NewReader("not json"), fixedNow, nil); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestVersionCounts(t *testing.T) {
	c := loaded(t)
	if c.Version() != 0 {
		t.Fatal("fresh session version != 0")
	}
	_ = c.Apply(Modification{Kind: ModScaleLoad, Factor: 1.01})
	_ = c.Apply(Modification{Kind: ModScaleLoad, Factor: 1.01})
	if c.Version() != 2 {
		t.Fatalf("version %d, want 2", c.Version())
	}
}

// TestDiffHashExact: the state key keeps its %.6f text for every value
// that text round-trips, so existing keys are unchanged, and adds a value's
// exact bits otherwise, so loads that differ below 1e-6 MW never share a
// key (and with it a memoized engine solve).
func TestDiffHashExact(t *testing.T) {
	c := loaded(t)
	for _, m := range []Modification{
		{Kind: ModSetLoad, BusID: 9, PMW: 40.25, QMVAr: -10},
		{Kind: ModScaleLoad, Factor: 1.05},
		{Kind: ModOutageBranch, Branch: 3},
	} {
		if err := c.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.DiffHash(), "ac6256aa18ae5765"; got != want {
		t.Fatalf("state key %s, want %s (the key of this state before exact keys)", got, want)
	}
	key := func(pmw float64) string {
		c := loaded(t)
		if err := c.Apply(Modification{Kind: ModSetLoad, BusID: 9, PMW: pmw, QMVAr: 10}); err != nil {
			t.Fatal(err)
		}
		return c.DiffHash()
	}
	if a, b := key(10.0000001), key(10.0000002); a == b {
		t.Fatalf("10.0000001 and 10.0000002 MW share state key %s", a)
	}
	if key(10.0000001) != key(10.0000001) {
		t.Fatal("exact state key not reproducible")
	}
}
