// Package scenario generalizes the single-shot N-1/N-2 machinery into a
// scenario engine: N-k cascade studies (protection-style trip sequences
// over stacked zero-clone outage views), time-series episodes (load
// curves and renewable injections driven through warm-started re-solves),
// and Monte Carlo reliability sampling with Wilson confidence intervals.
//
// Everything runs over one immutable base network: cascades stack rank-1
// Ybus patches on multi-outage OutageViews, episodes ride the view
// solver's in-place spec re-derivation (uniform load scaling + dispatch
// overrides), and Monte Carlo samples replay seeded outage/load draws
// through the same cascade driver. A clone-and-resolve reference backend
// in reference_test.go backs the differential harness, exactly as the
// contingency sweeps are pinned.
package scenario

import (
	"errors"
	"math"
	"runtime"

	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/obs"
	"gridmind/internal/powerflow"
)

// recordScenario publishes one run's bulk counters on met (no-op when
// nil). kind labels the run family (cascade, cascade_sweep, episode, mc);
// units is what the run evaluated (seeds, steps, samples), screened how
// many seeds the DC pre-screen certified without AC work, and work the
// run's solve work, as SweepPool.Run returns it: how many LU
// refactorizations went stale and re-pivoted, and how many stages solved
// only with their Q limits relaxed.
func recordScenario(met *obs.Registry, kind string, units, screened int, work contingency.SolveWork) {
	if met == nil {
		return
	}
	met.Counter("gridmind_scenario_runs_total", "Scenario-engine runs completed, by kind.", "kind", kind).Inc()
	met.Counter("gridmind_scenario_units_total", "Work units evaluated (cascade seeds, episode steps, MC samples), by kind.", "kind", kind).Add(int64(units))
	if screened > 0 {
		met.Counter("gridmind_scenario_screened_total", "Cascade seeds certified non-cascading by the DC pre-screen.", "kind", kind).Add(int64(screened))
	}
	if work.Repivots > 0 {
		met.Counter("gridmind_scenario_repivots_total", "LU refactorizations of scenario solves whose frozen pivots went stale and were re-pivoted, by kind.", "kind", kind).Add(int64(work.Repivots))
	}
	if work.QRelaxed > 0 {
		met.Counter("gridmind_scenario_q_relaxed_total", "Scenario stages whose Q-limited solve failed and that solved with the Q limits relaxed (stages labelled q_limits_relaxed), by kind.", "kind", kind).Add(int64(work.QRelaxed))
	}
}

// ErrNoBase reports a missing or unconverged base-case solution, or a
// network without the slack bus any converged base of it would have.
var ErrNoBase = errors.New("scenario: a converged base power flow is required")

// Stages count violations with the N-1 sweep's fixed thresholds: a branch
// loaded above overloadPct percent, or a bus voltage outside [voltLow,
// voltHigh] p.u. The cascade seed screen certifies below the N-1
// screener's predicted-loading bar, screenThreshold percent.
const (
	voltLow         = 0.94
	voltHigh        = 1.06
	overloadPct     = 100.0
	screenThreshold = 85.0
)

// Options configures cascade studies, sweeps and episodes. The zero value
// cascades to depth 3 with a 115% protection trip threshold, two trips
// per stage and no redispatch.
type Options struct {
	// MaxDepth bounds cascade propagation: stages tripped BEYOND the
	// initiating event (stage 0 is the seed outage itself). Zero selects 3.
	MaxDepth int
	// TripPct is the protection trip threshold: after each stage's solve,
	// every surviving branch loaded at or above it is a trip candidate.
	// Zero selects 115 (emergency-rating style margin above the 100%
	// overload threshold).
	TripPct float64
	// MaxTripsPerStage bounds how many ranked candidates trip per stage.
	// Zero selects 2.
	MaxTripsPerStage int
	// Redispatch applies a governor-style rebalance between stages: the
	// slack machines' solved pickup is moved onto the surviving non-slack
	// fleet's headroom before the next stage solves.
	Redispatch bool
	// Workers bounds sweep/Monte-Carlo parallelism; 0 selects GOMAXPROCS.
	Workers int
	// DCScreen enables the lazy-LODF pre-screen in cascade sweeps. A seed
	// outage is certified non-cascading without any AC work when every
	// surviving rated branch's DC-predicted loading is either below
	// screenThreshold, or essentially unchanged from its base loading
	// while clearing the trip threshold with margin (see
	// screenRisePct/screenTripMarginPct) — the cascade analogue of the
	// screener's basePct+allowance rule, needed because the DC prediction
	// is MW-only and absolute bars can't certify anything on a base that
	// already runs branches in the 90s.
	DCScreen bool

	// Pool is the state's outage base and worker pool, the one the
	// contingency sweeps run on (see contingency.SweepPool). Nil runs the
	// study on a throwaway pool over contingency.NewBase.
	Pool *contingency.SweepPool
	// Metrics, when non-nil, receives scenario-level counters (cascade
	// sweeps, seeds, screen certificates, episode steps, MC samples) —
	// recorded in bulk per run, never per solve.
	Metrics *obs.Registry
}

func (o *Options) fill() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 3
	}
	if o.TripPct == 0 {
		o.TripPct = 115
	}
	if o.MaxTripsPerStage <= 0 {
		o.MaxTripsPerStage = 2
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Pool == nil {
		o.Pool = contingency.NewSweepPool(contingency.NewBase)
	}
}

// Event is one initiating disturbance: a set of branch outages, a set of
// generator outages (applied with a joint governor pickup), and an
// optional uniform demand multiplier. The zero value disturbs nothing.
type Event struct {
	Branches  []int   `json:"branches,omitempty"`
	Gens      []int   `json:"gens,omitempty"`
	LoadScale float64 `json:"load_scale,omitempty"` // <= 0 means nominal (1.0)
}

func (e Event) loadScale() float64 {
	if e.LoadScale <= 0 {
		return 1
	}
	return e.LoadScale
}

// genTarget is one planned dispatch override in MW.
type genTarget struct {
	gen int
	p   float64
}

// fleetPlan is the resolved generation side of an event: the units taken
// out (invalid or sole-slack-machine draws dropped deterministically) and
// the joint governor-pickup dispatch targets for the survivors.
type fleetPlan struct {
	out       []int
	targets   []genTarget
	lostMW    float64
	deficitMW float64
}

// planGenOutages resolves an event's generator outages against the base
// fleet: the total lost dispatch is spread over the surviving units'
// headroom in proportion (a joint governor pickup — stacked outages share
// one headroom computation, so draws cannot double-book reserve). Units
// that are out of range, already out of service, or the only machine at
// the slack bus are skipped deterministically: a Monte Carlo draw of the
// irreplaceable reference has no steady state to study, exactly as the
// N-1 generation sweep skips it. Both cascade backends consume the same
// plan, so the arithmetic cannot diverge between them.
func planGenOutages(n *model.Network, gens []int) fleetPlan {
	var fp fleetPlan
	if len(gens) == 0 {
		return fp
	}
	slack := n.SlackBus()
	isOut := func(g int) bool {
		for _, o := range fp.out {
			if o == g {
				return true
			}
		}
		return false
	}
	for _, g := range gens {
		if g < 0 || g >= len(n.Gens) || !n.Gens[g].InService || isOut(g) {
			continue
		}
		if n.Gens[g].Bus == slack {
			// Dropping the last in-service slack machine leaves no angle
			// reference.
			ref := false
			for gi, gen := range n.Gens {
				if gi != g && gen.InService && gen.Bus == slack && !isOut(gi) {
					ref = true
					break
				}
			}
			if !ref {
				continue
			}
		}
		fp.out = append(fp.out, g)
		fp.lostMW += n.Gens[g].P
	}
	if len(fp.out) == 0 {
		return fp
	}
	var headroom float64
	for gi, gen := range n.Gens {
		if !gen.InService || isOut(gi) {
			continue
		}
		if h := gen.PMax - gen.P; h > 0 {
			headroom += h
		}
	}
	if headroom < fp.lostMW {
		fp.deficitMW = fp.lostMW - headroom
	}
	pickup := fp.lostMW
	if pickup > headroom {
		pickup = headroom
	}
	if headroom > 0 {
		for gi, gen := range n.Gens {
			if !gen.InService || isOut(gi) {
				continue
			}
			if h := gen.PMax - gen.P; h > 0 {
				fp.targets = append(fp.targets, genTarget{gen: gi, p: gen.P + pickup*h/headroom})
			}
		}
	}
	return fp
}

// minRedispatchMW is the slack deviation below which between-stage
// redispatch is skipped (noise-level imbalances are left to the slack).
const minRedispatchMW = 1.0

// planRedispatch computes the between-stage governor rebalance from a
// solved stage: the slack bus machines' aggregate deviation above their
// scheduled dispatch is moved onto the surviving non-slack fleet's
// remaining headroom, proportionally. Only positive pickup is rebalanced
// — backing units down against PMin is a dispatch decision, not a
// governor action. effP reads the currently scheduled dispatch and
// inService the effective status, so both backends plan from identical
// state.
func planRedispatch(n *model.Network, res *powerflow.Result,
	inService func(int) bool, effP func(int) float64) ([]genTarget, float64) {
	slack := n.SlackBus()
	var slackDelta float64
	for gi, gen := range n.Gens {
		if gen.Bus != slack || !inService(gi) {
			continue
		}
		slackDelta += res.GenP[gi] - effP(gi)
	}
	if slackDelta <= minRedispatchMW {
		return nil, 0
	}
	var headroom float64
	for gi, gen := range n.Gens {
		if gen.Bus == slack || !inService(gi) {
			continue
		}
		if h := gen.PMax - effP(gi); h > 0 {
			headroom += h
		}
	}
	if headroom <= 0 {
		return nil, 0
	}
	move := math.Min(slackDelta, headroom)
	var ts []genTarget
	for gi, gen := range n.Gens {
		if gen.Bus == slack || !inService(gi) {
			continue
		}
		if h := gen.PMax - effP(gi); h > 0 {
			ts = append(ts, genTarget{gen: gi, p: effP(gi) + move*h/headroom})
		}
	}
	return ts, move
}
