package contingency

import (
	"sync"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
)

// The parallel sweep shares one immutable base network (and, with
// screening on, one lazy-LODF memo) across workers that each own a
// mutable view context. These tests exercise exactly that sharing; CI
// runs the suite under -race, which turns any cross-worker write into a
// failure.

func TestRaceParallelSweepSharedBase(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	// Two concurrent sweeps over the same base, one with DC screening
	// (shared screener + lazy LODF memo), one without, each multi-worker.
	var wg sync.WaitGroup
	results := make([]*ResultSet, 2)
	for i, opts := range []Options{
		{Workers: 4},
		{Workers: 4, DCScreen: true},
	} {
		wg.Add(1)
		go func(i int, opts Options) {
			defer wg.Done()
			rs, err := Analyze(n, base, opts)
			if err != nil {
				t.Errorf("sweep %d: %v", i, err)
				return
			}
			results[i] = rs
		}(i, opts)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := range results[0].Outages {
		a, b := results[0].Outages[i], results[1].Outages[i]
		if a.Branch != b.Branch || a.Islanded != b.Islanded {
			t.Fatalf("outage %d: concurrent sweeps disagree on identity", i)
		}
	}
	// The base must come through untouched.
	for k, br := range n.Branches {
		if !br.InService {
			t.Fatalf("branch %d left out of service by a sweep", k)
		}
	}
}

// TestRaceN2SharedBaseAndLODFMemo exercises the N-2 pipeline's sharing
// contract: pair workers hit the lazy-LODF memo far harder than the N-1
// sweep (two columns plus the interaction entries per candidate), while
// sharing one immutable base network, one topology and one pair screener.
// Two concurrent AnalyzeN2 calls — one pre-screened, one brute-force —
// must agree and leave the base untouched; CI runs this under -race.
func TestRaceN2SharedBaseAndLODFMemo(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	n1, err := Analyze(n, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := SeedN2Pairs(n, n1, N2Options{TopK: 10})
	var wg sync.WaitGroup
	results := make([]*ResultSet, 2)
	for i, opts := range []N2Options{
		{Options: Options{Workers: 4}, Pairs: pairs},
		{Options: Options{Workers: 4}, Pairs: pairs, NoPreScreen: true},
	} {
		wg.Add(1)
		go func(i int, opts N2Options) {
			defer wg.Done()
			rs, err := AnalyzeN2(n, base, n1, opts)
			if err != nil {
				t.Errorf("n2 sweep %d: %v", i, err)
				return
			}
			results[i] = rs
		}(i, opts)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := range results[0].Outages {
		a, b := results[0].Outages[i], results[1].Outages[i]
		if a.Branch != b.Branch || a.Branch2 != b.Branch2 || a.Islanded != b.Islanded {
			t.Fatalf("pair %d: concurrent sweeps disagree on identity", i)
		}
	}
	for k, br := range n.Branches {
		if !br.InService {
			t.Fatalf("branch %d left out of service by an N-2 sweep", k)
		}
	}
	for g, gen := range n.Gens {
		if !gen.InService {
			t.Fatalf("generator %d left out of service by an N-2 sweep", g)
		}
	}
}

func TestRaceConcurrentOutageViewReaders(t *testing.T) {
	n := cases.MustLoad("case30")
	base := solveBase(t, n)
	topo := model.NewTopology(n)
	branches := n.InServiceBranches()
	opts := Options{}
	opts.fill()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns its context; only the base network, base
			// result and topology are shared, all read-only.
			ctx := newSweepContext(n, base, topo, nil)
			for off := 0; off < len(branches); off++ {
				k := branches[(off+w)%len(branches)]
				if r := ctx.analyze(branchOutage(k), opts); r.Branch != k {
					t.Errorf("worker %d: wrong result branch", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
