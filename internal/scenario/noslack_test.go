package scenario

import (
	"errors"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/model"
)

// TestNoSlackFailsLoudly: a network without a slack bus has no steady
// state for any outage or scenario solve, so every entry point that would
// build a view solver over it must fail with an error instead of returning
// records. The base-taking entry points see a converged base of the intact
// case paired with the slackless copy, and the generator-outage entry
// points take no base; all must reject it as ErrNoBase. This covers the
// contingency package too, which cannot import scenario's tests the other
// way round.
func TestNoSlackFailsLoudly(t *testing.T) {
	base := solveBase(t, cases.MustLoad("case14"))
	n := cases.MustLoad("case14")
	n.Buses[n.SlackBus()].Type = model.PV
	if n.SlackBus() >= 0 {
		t.Fatal("case14 still has a slack bus")
	}
	pair := []contingency.N2Pair{{BranchA: 0, BranchB: 1, Gen: -1}}
	for _, c := range []struct {
		name string
		run  func() (any, error)
		want error // the wanted sentinel; nil accepts any error
	}{
		{"contingency.Analyze", func() (any, error) {
			return contingency.Analyze(n, base, contingency.Options{})
		}, contingency.ErrNoBase},
		{"contingency.AnalyzeN2", func() (any, error) {
			return contingency.AnalyzeN2(n, base, nil, contingency.N2Options{Pairs: pair})
		}, contingency.ErrNoBase},
		{"contingency.AnalyzeGenOutage", func() (any, error) {
			return contingency.AnalyzeGenOutage(n, 1, contingency.Options{})
		}, contingency.ErrNoBase},
		{"contingency.AnalyzeGenOutages", func() (any, error) {
			return contingency.AnalyzeGenOutages(n, contingency.Options{Pool: contingency.NewSweepPool(contingency.NewBase)})
		}, contingency.ErrNoBase},
		{"scenario.Cascade", func() (any, error) {
			return Cascade(n, base, Event{Branches: []int{0}}, Options{})
		}, ErrNoBase},
		{"scenario.Sweep", func() (any, error) {
			return Sweep(n, base, Options{Pool: contingency.NewSweepPool(contingency.NewBase)})
		}, ErrNoBase},
		{"scenario.Episode", func() (any, error) {
			return Episode(n, base, []EpisodeStep{{LoadScale: 1.05}}, Options{})
		}, ErrNoBase},
		{"scenario.RunMC", func() (any, error) {
			return RunMC(n, base, MCOptions{Samples: 4, BranchOutageProb: 0.1})
		}, ErrNoBase},
	} {
		_, err := c.run()
		switch {
		case err == nil:
			t.Errorf("%s accepted a network without a slack bus", c.name)
		case c.want != nil && !errors.Is(err, c.want):
			t.Errorf("%s: error %v, want %v", c.name, err, c.want)
		}
	}
}
