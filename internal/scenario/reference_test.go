package scenario

import (
	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// cloneState is the brute-force reference backend the differential
// harnesses run the shared cascade and episode drivers over: one deep
// clone per cascade (or episode step), mutated progressively (outages flip
// InService, redispatch writes P, load scale rewrites the load table) and
// re-solved from scratch per stage.
type cloneState struct {
	base *model.Network
	n    *model.Network
}

func (s *cloneState) prepare(ev Event, fp fleetPlan) {
	s.n = s.base.Clone()
	for _, g := range fp.out {
		s.n.Gens[g].InService = false
	}
	for _, t := range fp.targets {
		s.n.Gens[t.gen].P = t.p
	}
	if ls := ev.loadScale(); ls != 1 {
		for i := range s.n.Loads {
			s.n.Loads[i].P *= ls
			s.n.Loads[i].Q *= ls
		}
	}
}

func (s *cloneState) trip(branches []int) {
	for _, k := range branches {
		s.n.Branches[k].InService = false
	}
}

func (s *cloneState) solve(opts powerflow.Options) (*powerflow.Result, error) {
	return powerflow.Solve(s.n, opts)
}

// solveOrFallback is the clone backend's copy of the worker's escalation:
// Newton at opts, then Newton from the case start profile with the Q
// limits relaxed.
func (s *cloneState) solveOrFallback(opts powerflow.Options) (*powerflow.Result, bool, error) {
	res, err := s.solve(opts)
	if err == nil && res.Converged {
		return res, false, nil
	}
	res, err = s.solve(powerflow.Options{})
	return res, err == nil && res.Converged, err
}

// shed is the clone backend's solvability bisection: each of the five
// trials deep-clones the current state with demand and dispatch scaled
// and solves it from a flat start.
func (s *cloneState) shed() float64 {
	loadP, _ := s.n.TotalLoad()
	lo, hi := 0.0, 1.0 // feasible scale in [lo, hi)
	for iter := 0; iter < 5; iter++ {
		mid := (lo + hi) / 2
		trial := s.n.Clone()
		for i := range trial.Loads {
			trial.Loads[i].P *= mid
			trial.Loads[i].Q *= mid
		}
		for i := range trial.Gens {
			trial.Gens[i].P *= mid
		}
		if res, err := powerflow.Solve(trial, powerflow.Options{FlatStart: true}); err == nil && res.Converged {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (1 - lo) * loadP
}

func (s *cloneState) setGenP(g int, p float64) { s.n.Gens[g].P = p }
func (s *cloneState) inService(g int) bool     { return s.n.Gens[g].InService }
func (s *cloneState) effP(g int) float64       { return s.n.Gens[g].P }

// cascadeReference runs one cascade through the shared driver on the clone
// backend, as Cascade does on the view backend.
func cascadeReference(n *model.Network, base *powerflow.Result, ev Event, opts Options) *CascadeResult {
	opts.fill()
	return runCascade(contingency.NewSweepPool(contingency.NewBase).Acquire(n), &cloneState{base: n}, n, base, ev, opts)
}

// episodeReference runs an episode through the shared driver on the clone
// backend, as Episode does on the view backend.
func episodeReference(n *model.Network, base *powerflow.Result, steps []EpisodeStep, opts Options) *EpisodeResult {
	opts.fill()
	return runEpisode(contingency.NewSweepPool(contingency.NewBase).Acquire(n), &cloneState{base: n}, n, base, steps, opts)
}
