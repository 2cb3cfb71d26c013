package contingency

import (
	"encoding/json"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gridmind/internal/cases"
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

// TestRaceN2SharedPoolIgnoresDCScreen exercises the N-2 pipeline's sharing
// contract: two concurrent AnalyzeN2 calls on one SweepPool share its
// immutable base network, outage base and workers. One sets
// Options.DCScreen, as a fleet shard body may; the N-2 sweep never
// screens, so neither certifies a pair and the two agree record for
// record. The base must come through untouched; CI runs this under -race.
func TestRaceN2SharedPoolIgnoresDCScreen(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	n1, err := Analyze(n, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := SeedN2Pairs(n, n1, N2Options{TopK: 10})
	pool := NewSweepPool(NewBase)
	var wg sync.WaitGroup
	results := make([]*ResultSet, 2)
	for i, opts := range []Options{
		{Workers: 4, Pool: pool},
		{Workers: 4, Pool: pool, DCScreen: true},
	} {
		wg.Add(1)
		go func(i int, opts Options) {
			defer wg.Done()
			rs, err := AnalyzeN2(n, base, n1, N2Options{Options: opts, Pairs: pairs})
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
	for i, rs := range results {
		if rs.Screened != 0 {
			t.Fatalf("n2 sweep %d screened %d pairs; the N-2 sweep must not screen", i, rs.Screened)
		}
	}
	for i := range pairs {
		if err := diffOutage(&results[0].Outages[i], &results[1].Outages[i]); err != nil {
			t.Fatalf("pair %d (%+v): concurrent sweeps disagree: %v", i, pairs[i], err)
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
	b := NewBase(n)
	branches := n.InServiceBranches()
	opts := Options{}
	opts.fill()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine owns its Worker; only the base network, base
			// result and outage base are shared, all read-only.
			wk := newWorker(n, b)
			for off := 0; off < len(branches); off++ {
				k := branches[(off+w)%len(branches)]
				if r := wk.analyze(base, branchOutage(k), opts); r.Branch != k {
					t.Errorf("worker %d: wrong result branch", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRankMemoSharedByReaders: a sweep's rankings and recommendations are
// computed once and shared by concurrent readers. Every answer equals a
// memo-free copy's (the set decoded from its own JSON), whichever
// strategy was asked first, and Rank hands each caller a copy it may
// modify.
func TestRankMemoSharedByReaders(t *testing.T) {
	n := cases.MustLoad("case57")
	rs, err := Analyze(n, solveBase(t, n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *ResultSet {
		var c ResultSet
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatal(err)
		}
		return &c
	}
	strategies := []Strategy{Composite, ThermalFirst}
	var wantRank [2][]int
	var wantTop [2][]OutageResult
	for _, s := range strategies {
		wantRank[s], wantTop[s] = fresh().Rank(s), fresh().Top(7, s)
	}
	wantRecs := fresh().Recommend(0)
	if len(wantRecs) < 4 || slices.Equal(wantRank[0], wantRank[1]) {
		t.Fatalf("case57 gives %d recommendations and equal rankings: the test needs more and different", len(wantRecs))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s := strategies[(g+i)%2]
				idx := rs.Rank(s)
				if !slices.Equal(idx, wantRank[s]) {
					t.Errorf("goroutine %d: %s ranking differs from a memo-free copy's", g, s)
					return
				}
				idx[0], idx[1] = idx[1], idx[0] // a caller's copy, not the memo
				if top := rs.Top(7, s); !reflect.DeepEqual(top, wantTop[s]) {
					t.Errorf("goroutine %d: %s top 7 differs from a memo-free copy's", g, s)
					return
				}
				k := 1 + (g+i)%len(wantRecs)
				if recs := rs.Recommend(k); !reflect.DeepEqual(recs, wantRecs[:k]) {
					t.Errorf("goroutine %d: Recommend(%d) differs from a memo-free copy's", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
