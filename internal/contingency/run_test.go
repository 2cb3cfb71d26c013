package contingency

import (
	"crypto/sha256"
	"encoding/json"
	"sync/atomic"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/powerflow"
)

// TestGenSweepWorkerCountIdentity: the generator sweep fans out over
// Options.Workers through SweepPool.Run, and its records are byte-identical
// whatever the worker count.
func TestGenSweepWorkerCountIdentity(t *testing.T) {
	for _, name := range []string{"case57", "case118"} {
		n := cases.MustLoad(name)
		var sums [2][32]byte
		for i, workers := range []int{1, 4} {
			rs, err := AnalyzeGenOutages(n, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(rs)
			if err != nil {
				t.Fatal(err)
			}
			sums[i] = sha256.Sum256(b)
		}
		if sums[0] != sums[1] {
			t.Fatalf("%s: generator sweep at Workers 1 hashes %x, at Workers 4 %x", name, sums[0], sums[1])
		}
	}
}

// TestRunDriver pins SweepPool.Run's contract: every item settles exactly
// once, by certify or by solve; a worker is checked out only for an
// uncertified item; and the returned tally is the sum of the solves' LU
// work.
func TestRunDriver(t *testing.T) {
	n := cases.MustLoad("case30")
	branches := n.InServiceBranches()
	never := func(int) bool { return false }
	always := func(int) bool { return true }

	for _, c := range []struct {
		name           string
		workers, count int
		certify        func(int) bool
		wantBuilds     bool
	}{
		{"no items", 4, 0, never, false},
		{"more workers than items", 8, 3, never, true},
		{"every item certified", 4, 12, always, false},
		{"odd items certified", 2, 12, func(i int) bool { return i%2 == 1 }, true},
		{"no certificate", 3, len(branches), nil, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewSweepPool(NewBase)
			settled := make([]int32, c.count)
			var facts, starts, repivots atomic.Int64
			certify := c.certify
			if certify != nil {
				certify = func(i int) bool {
					if !c.certify(i) {
						return false
					}
					atomic.AddInt32(&settled[i], 1)
					return true
				}
			}
			got := p.Run(n, c.workers, c.count, certify, func(w *Worker, i int) {
				atomic.AddInt32(&settled[i], 1)
				w.View().Reset()
				w.View().OutBranch(branches[i])
				// A failed solve counts too (an islanding outage fails with
				// a singular pivot), as it does for the sweeps' tally.
				if res, _ := w.Solve(powerflow.Options{EnforceQLimits: true}); res != nil {
					facts.Add(int64(res.Factorizations))
					starts.Add(int64(res.BaseFactorStarts))
					repivots.Add(int64(res.Repivots))
				}
			})
			for i, s := range settled {
				if s != 1 {
					t.Fatalf("item %d settled %d times", i, s)
				}
			}
			if builds := p.ContextBuilds(); (builds > 0) != c.wantBuilds || builds > int64(min(c.workers, c.count)) {
				t.Fatalf("%d workers built for %d goroutines (want any: %v)", builds, min(c.workers, c.count), c.wantBuilds)
			}
			want := SolveWork{Factorizations: int(facts.Load()), BaseStarts: int(starts.Load()), Repivots: int(repivots.Load())}
			if got != want {
				t.Fatalf("Run tallied %+v, the solves %+v", got, want)
			}
			if c.wantBuilds && got.Factorizations == 0 {
				t.Fatal("solves ran but no factorization was tallied")
			}
		})
	}
}
