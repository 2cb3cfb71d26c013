package contingency_test

import (
	"errors"
	"testing"

	"gridmind/internal/contingency"
	"gridmind/internal/engine"
)

// TestForeignAliasFailsWithErrArtifactMismatch: the four Options aliases
// are checked against the pool's outage base. A foreign BaseYbus,
// Topology, Reorder or PTDF, set one at a time next to the engine's pool,
// fails every study with ErrArtifactMismatch, while the engine's own
// pointers, wired the way bench/e2e's probe wires them, pass.
func TestForeignAliasFailsWithErrArtifactMismatch(t *testing.T) {
	eng := engine.New()
	n, err := eng.Pristine("case30")
	if err != nil {
		t.Fatal(err)
	}
	base, err := eng.BasePF("case30", n)
	if err != nil {
		t.Fatal(err)
	}
	gen := -1
	for g, u := range n.Gens {
		if u.InService && u.Bus != n.SlackBus() {
			gen = g
			break
		}
	}
	branches := n.InServiceBranches()
	studies := []struct {
		name string
		run  func(contingency.Options) error
	}{
		{"Analyze", func(o contingency.Options) error {
			_, err := contingency.Analyze(n, base, o)
			return err
		}},
		{"AnalyzeN2", func(o contingency.Options) error {
			pairs := []contingency.N2Pair{{BranchA: branches[0], BranchB: branches[1], Gen: -1}}
			_, err := contingency.AnalyzeN2(n, base, nil, contingency.N2Options{Options: o, Pairs: pairs})
			return err
		}},
		{"AnalyzeGenOutage", func(o contingency.Options) error {
			_, err := contingency.AnalyzeGenOutage(n, gen, o)
			return err
		}},
		{"AnalyzeGenOutages", func(o contingency.Options) error {
			_, err := contingency.AnalyzeGenOutages(n, o)
			return err
		}},
		{"AnalyzeOne", func(o contingency.Options) error {
			_, err := contingency.AnalyzeOne(n, base, branches[0], o)
			return err
		}},
	}

	foreign := contingency.NewBase(n)
	foreignPTDF, err := foreign.PTDF()
	if err != nil {
		t.Fatal(err)
	}
	aliases := []struct {
		name string
		set  func(*contingency.Options)
	}{
		{"BaseYbus", func(o *contingency.Options) { o.BaseYbus = foreign.Ybus() }},
		{"Topology", func(o *contingency.Options) { o.Topology = foreign.Topology() }},
		{"Reorder", func(o *contingency.Options) { o.Reorder = foreign.Ordering() }},
		{"PTDF", func(o *contingency.Options) { o.PTDF = foreignPTDF }},
	}
	for _, s := range studies {
		for _, a := range aliases {
			opts := contingency.Options{Workers: 1, DCScreen: true, Pool: eng.SweepPool("case30")}
			a.set(&opts)
			if err := s.run(opts); !errors.Is(err, contingency.ErrArtifactMismatch) {
				t.Errorf("%s with a foreign %s: got %v, want ErrArtifactMismatch", s.name, a.name, err)
			}
		}

		art := eng.Artifacts(n)
		m, err := art.PTDF()
		if err != nil {
			t.Fatal(err)
		}
		probe := contingency.Options{
			Workers: 1, DCScreen: true, Cache: contingency.NewCache(), CacheKeyPrefix: "case30",
			BaseYbus: art.Ybus(), Topology: art.Topology(), Reorder: art.Ordering(), Pool: eng.SweepPool("case30"),
		}
		if err := s.run(probe); err != nil {
			t.Errorf("%s with the engine's own artifacts: %v", s.name, err)
		}
		probe.PTDF = m
		if err := s.run(probe); err != nil {
			t.Errorf("%s with the engine's own artifacts and PTDF: %v", s.name, err)
		}
	}
}
