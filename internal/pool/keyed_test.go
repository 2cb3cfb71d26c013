package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestKeyedReuseAndBuildCounts(t *testing.T) {
	p := NewKeyed[string, *int](4)
	built := 0
	build := func() *int { built++; return new(int) }

	a := p.Get("x", build)
	b := p.Get("x", build) // a is checked out: must build a second
	if a == b || built != 2 {
		t.Fatalf("two concurrent checkouts shared a value (built %d)", built)
	}
	p.Put("x", a)
	p.Put("x", b)
	if got := p.Get("x", build); got != b { // LIFO
		t.Fatalf("Get returned %p, want the last Put %p", got, b)
	}
	if got := p.Get("y", build); got == a || built != 3 {
		t.Fatalf("a value crossed keys (built %d)", built)
	}
	if got := p.Get("x", build); got != a || built != 3 {
		t.Fatalf("second free value not reused (built %d)", built)
	}
	if p.Reuses() != 2 || p.Builds() != 3 {
		t.Fatalf("reuses/builds = %d/%d, want 2/3", p.Reuses(), p.Builds())
	}
}

func TestKeyedCapResetsWholesale(t *testing.T) {
	p := NewKeyed[int, int](2)
	build := func() int { return -1 }
	p.Put(1, 10)
	p.Put(2, 20)
	p.Put(2, 21) // existing key at the cap: no reset
	if got := p.Get(1, build); got != 10 {
		t.Fatalf("key 1 lost before the cap was exceeded: %d", got)
	}
	// Key 1 is still in the map (empty list), so the map is at the cap: a
	// third key drops everything first.
	p.Put(3, 30)
	if got := p.Get(2, build); got != -1 {
		t.Fatalf("key 2 survived the reset: %d", got)
	}
	if got := p.Get(3, build); got != 30 {
		t.Fatalf("the Put that triggered the reset was dropped: %d", got)
	}

	u := NewKeyed[int, int](0) // unbounded
	for k := 0; k < 100; k++ {
		u.Put(k, k)
	}
	for k := 0; k < 100; k++ {
		if got := u.Get(k, build); got != k {
			t.Fatalf("unbounded list lost key %d: %d", k, got)
		}
	}
}

// TestKeyedConcurrentHammer runs under -race: goroutines contend on a few
// shared keys (past the cap, so resets interleave), and every value must be
// owned by exactly one goroutine between Get and Put and stay under its key.
func TestKeyedConcurrentHammer(t *testing.T) {
	type val struct {
		key   int
		owner atomic.Int32
		uses  int // unsynchronized on purpose: -race flags double ownership
	}
	p := NewKeyed[int, *val](3)
	const workers, rounds, keys = 8, 2000, 5
	var gets atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w + i) % keys
				v := p.Get(k, func() *val { return &val{key: k} })
				gets.Add(1)
				if v.key != k {
					t.Errorf("value of key %d served under key %d", v.key, k)
				}
				if !v.owner.CompareAndSwap(0, 1) {
					t.Errorf("value of key %d handed to two goroutines", k)
				}
				v.uses++
				v.owner.Store(0)
				p.Put(k, v)
			}
		}(w)
	}
	wg.Wait()
	if p.Reuses()+p.Builds() != gets.Load() {
		t.Fatalf("reuses %d + builds %d != gets %d", p.Reuses(), p.Builds(), gets.Load())
	}
	if p.Reuses() == 0 {
		t.Fatal("hammer never reused a value")
	}
}
