package session

import (
	"testing"

	"gridmind/internal/engine"
	"gridmind/internal/model"
)

// TestNetworkSnapshotZeroClones pins the serving-path contract: repeated
// Network() calls on an unchanged diff log perform zero Network.Clone
// calls (the process-wide CloneCount counter is exact where allocation
// budgets are noisy).
func TestNetworkSnapshotZeroClones(t *testing.T) {
	c := NewWithEngine(nil, nil)
	if _, err := c.LoadCase("case14"); err != nil {
		t.Fatal(err)
	}

	// Zero diffs: Network() is the shared pristine itself, clone-free.
	n1, err := c.Network()
	if err != nil {
		t.Fatal(err)
	}
	before := model.CloneCount()
	for i := 0; i < 10; i++ {
		ni, err := c.Network()
		if err != nil {
			t.Fatal(err)
		}
		if ni != n1 {
			t.Fatal("zero-diff Network() must return the shared snapshot instance")
		}
	}
	if d := model.CloneCount() - before; d != 0 {
		t.Fatalf("zero-diff Network() cloned %d times, want 0", d)
	}

	// One diff: Apply's dry run doubles as the replay, so subsequent
	// Network() calls are still clone-free memo hits.
	if err := c.Apply(Modification{Kind: ModSetLoad, BusID: 9, PMW: 40, QMVAr: 10}); err != nil {
		t.Fatal(err)
	}
	before = model.CloneCount()
	n2, err := c.Network()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ni, _ := c.Network()
		if ni != n2 {
			t.Fatal("unchanged diff log must keep one snapshot instance")
		}
	}
	if d := model.CloneCount() - before; d != 0 {
		t.Fatalf("memoized Network() cloned %d times, want 0", d)
	}
	if n2 == n1 {
		t.Fatal("a diffed state must not alias the pristine network")
	}
	if p, q := n2.BusLoad(n2.BusByID(9)); p != 40 || q != 10 {
		t.Fatalf("snapshot lost the modification: load %v/%v", p, q)
	}

	hits, replays := c.NetworkStats()
	if replays != 0 {
		t.Fatalf("replays = %d, want 0 (Apply's dry run doubles as the replay)", replays)
	}
	if hits < 20 {
		t.Fatalf("hits = %d, want >= 20", hits)
	}

	// The snapshot invalidates on the next Apply.
	if err := c.Apply(Modification{Kind: ModScaleLoad, Factor: 1.1}); err != nil {
		t.Fatal(err)
	}
	n3, _ := c.Network()
	if n3 == n2 {
		t.Fatal("Apply must invalidate the snapshot")
	}
}

// TestPristineSharedAcrossEngineSessions: sessions bound to one engine
// share the pristine case instance, so N fresh sessions on the same case
// cost one load and zero clones on their zero-diff hot path.
func TestPristineSharedAcrossEngineSessions(t *testing.T) {
	eng := engine.New()
	a := NewWithEngine(nil, eng)
	b := NewWithEngine(nil, eng)
	if _, err := a.LoadCase("case30"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.LoadCase("case30"); err != nil {
		t.Fatal(err)
	}
	na, _ := a.Network()
	nb, _ := b.Network()
	if na != nb {
		t.Fatal("engine-bound sessions at zero diffs must share one network instance")
	}
	if v, ok := eng.Metrics().Value("gridmind_engine_pristine_lookups_total", "result", "miss"); !ok || v != 1 {
		t.Fatalf("pristine loaded %v times (series present: %v), want 1", v, ok)
	}

	// Diverging one session must not disturb the other.
	if err := b.Apply(Modification{Kind: ModScaleLoad, Factor: 1.2}); err != nil {
		t.Fatal(err)
	}
	nb2, _ := b.Network()
	if nb2 == na {
		t.Fatal("diffed session must replay onto its own clone")
	}
	na2, _ := a.Network()
	if na2 != na {
		t.Fatal("other session's snapshot must be untouched")
	}
}
