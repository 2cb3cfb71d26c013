package session

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomMods draws a sequence of modifications that keep case14 valid
// (no islanding outages).
func randomMods(rng *rand.Rand, count int) []Modification {
	// Branch 13 (7-8) islands bus 8 in case14; avoid outaging it.
	safeBranches := []int{0, 1, 2, 3, 4, 5, 6, 15, 17}
	loadBuses := []int{2, 3, 4, 5, 9, 13, 14}
	var out []Modification
	for i := 0; i < count; i++ {
		switch rng.Intn(4) {
		case 0:
			out = append(out, Modification{
				Kind: ModSetLoad, BusID: loadBuses[rng.Intn(len(loadBuses))],
				PMW: 5 + 40*rng.Float64(), QMVAr: 2 + 10*rng.Float64(),
			})
		case 1:
			out = append(out, Modification{Kind: ModScaleLoad, Factor: 0.9 + 0.2*rng.Float64()})
		case 2:
			b := safeBranches[rng.Intn(len(safeBranches))]
			out = append(out, Modification{Kind: ModOutageBranch, Branch: b},
				Modification{Kind: ModRestoreBranch, Branch: b})
		default:
			out = append(out, Modification{Kind: ModSetGenP, Gen: 1 + rng.Intn(4), PMW: 10 + 50*rng.Float64()})
		}
	}
	return out
}

// Property: any accepted diff sequence replays deterministically — two
// contexts with the same diffs produce identical networks and hashes.
func TestDiffReplayDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mods := randomMods(rng, 1+rng.Intn(6))
		build := func() (*Context, bool) {
			c := NewWithEngine(nil, nil)
			if _, err := c.LoadCase("case14"); err != nil {
				return nil, false
			}
			for _, m := range mods {
				if err := c.Apply(m); err != nil {
					return nil, false // rejected mods end the property vacuously
				}
			}
			return c, true
		}
		c1, ok1 := build()
		c2, ok2 := build()
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		if c1.DiffHash() != c2.DiffHash() {
			return false
		}
		n1, err1 := c1.Network()
		n2, err2 := c2.Network()
		if err1 != nil || err2 != nil {
			return false
		}
		if len(n1.Loads) != len(n2.Loads) {
			return false
		}
		for i := range n1.Loads {
			if n1.Loads[i] != n2.Loads[i] {
				return false
			}
		}
		for i := range n1.Branches {
			if n1.Branches[i] != n2.Branches[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: persist → restore is lossless for any accepted diff sequence.
func TestPersistRestoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewWithEngine(nil, nil)
		if _, err := c.LoadCase("case14"); err != nil {
			return false
		}
		for _, m := range randomMods(rng, 1+rng.Intn(5)) {
			_ = c.Apply(m) // rejected mods simply don't enter the log
		}
		var buf bytes.Buffer
		if err := c.Persist(&buf); err != nil {
			return false
		}
		r, err := RestoreWithEngine(&buf, nil, nil)
		if err != nil {
			return false
		}
		if r.DiffHash() != c.DiffHash() || r.Version() != c.Version() {
			return false
		}
		n1, _ := c.Network()
		n2, _ := r.Network()
		if len(n1.Loads) != len(n2.Loads) {
			return false
		}
		for i := range n1.Loads {
			if n1.Loads[i] != n2.Loads[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the state hash is invariant to timestamps and provenance but
// sensitive to every diff parameter.
func TestDiffHashSensitivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := NewWithEngine(nil, nil)
		if _, err := base.LoadCase("case14"); err != nil {
			return false
		}
		m := Modification{Kind: ModSetLoad, BusID: 9, PMW: 10 + 50*rng.Float64(), QMVAr: 5}
		if err := base.Apply(m); err != nil {
			return false
		}
		other := NewWithEngine(nil, nil)
		if _, err := other.LoadCase("case14"); err != nil {
			return false
		}
		m2 := m
		m2.PMW += 0.001 // tiniest parameter change must change the hash
		if err := other.Apply(m2); err != nil {
			return false
		}
		return base.DiffHash() != other.DiffHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
