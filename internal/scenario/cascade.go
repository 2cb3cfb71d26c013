package scenario

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"

	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
	"gridmind/internal/ptdf"
)

// Outcome classifies how a cascade terminated.
type Outcome string

const (
	// OutcomeStable: a stage solved with no branch at or above the trip
	// threshold — the cascade arrested.
	OutcomeStable Outcome = "stable"
	// OutcomeIslanded: the cumulative trip set split the grid; load outside
	// the slack island is shed and propagation stops.
	OutcomeIslanded Outcome = "islanded"
	// OutcomeCollapse: a stage failed to solve even with its Q limits
	// relaxed — voltage collapse; the shed estimate comes from the
	// solvability bisection.
	OutcomeCollapse Outcome = "collapse"
	// OutcomeDepthLimit: trip candidates remained when MaxDepth was reached.
	OutcomeDepthLimit Outcome = "depth_limit"
	// OutcomeScreened: the sweep's DC pre-screen certified the seed
	// non-cascading without AC work.
	OutcomeScreened Outcome = "screened"
)

// Stage is one solved rung of a cascade: the trips applied entering it,
// the post-trip operating point's violations, and the protection-rule
// selection feeding the next rung.
type Stage struct {
	Index int `json:"index"`
	// Trips are the branches tripped entering this stage (stage 0: the
	// seed event's branches, later stages: the previous stage's NextTrips).
	Trips []int `json:"trips,omitempty"`
	// Islanded marks a stage whose trips split the grid; no solve follows.
	Islanded  bool   `json:"islanded,omitempty"`
	Converged bool   `json:"converged"`
	Algorithm string `json:"algorithm,omitempty"`
	// QLimitsRelaxed marks a stage solved only with the generators'
	// reactive limits relaxed (contingency.Worker.SolveOrFallback's second
	// solve); later stages start from its point.
	QLimitsRelaxed bool `json:"q_limits_relaxed,omitempty"`
	// MaxLoadingPct / overload and voltage records mirror the contingency
	// scorer's, restricted to surviving branches.
	MaxLoadingPct float64                        `json:"max_loading_pct"`
	MinVoltagePU  float64                        `json:"min_voltage_pu"`
	Overloads     []contingency.BranchLoading    `json:"overloads,omitempty"`
	VoltViols     []contingency.VoltageViolation `json:"voltage_violations,omitempty"`
	// NextTrips is the protection selection from this stage's flows:
	// surviving branches at or above TripPct, ranked by loading (ties by
	// branch index), capped at MaxTripsPerStage. Empty means arrested.
	NextTrips []int `json:"next_trips,omitempty"`
	// RedispatchMW is the governor rebalance applied after this stage.
	RedispatchMW float64 `json:"redispatch_mw,omitempty"`
}

// CascadeResult is one full cascade study from an initiating event.
type CascadeResult struct {
	Event   Event   `json:"event"`
	Outcome Outcome `json:"outcome"`
	Stages  []Stage `json:"stages,omitempty"`
	// Depth is the number of propagation stages beyond the seed.
	Depth int `json:"depth"`
	// TrippedBranches is the cumulative trip set in trip order.
	TrippedBranches []int `json:"tripped_branches,omitempty"`
	// GensOut are the generator outages actually applied (invalid or
	// sole-slack-machine draws are dropped by planGenOutages).
	GensOut []int `json:"gens_out,omitempty"`
	// LoadShedMW is islanded demand (at the event's load scale) or the
	// collapse shed estimate.
	LoadShedMW float64 `json:"load_shed_mw"`
	// LostGenMW / GenDeficitMW mirror the N-1 generation sweep's loss and
	// reserve-deficit accounting for the event's unit outages.
	LostGenMW    float64 `json:"lost_gen_mw,omitempty"`
	GenDeficitMW float64 `json:"gen_deficit_mw,omitempty"`
	// ScreenedPct is the DC-predicted worst loading for screened seeds.
	ScreenedPct float64 `json:"screened_pct,omitempty"`
	// Severity is the composite ranking score (overload excess, voltage
	// deviation, shed MW, reserve deficit, collapse penalty) accumulated
	// over all stages — the cascade generalization of the N-1 score.
	Severity float64 `json:"severity"`
}

// cascadeState is the solve backend of a cascade or an episode step: the
// pooled zero-clone view path (viewState), or the brute-force clone
// reference in reference_test.go that the differential harnesses pin it
// against. Everything above this interface — trip selection, islanding,
// the failure escalation, redispatch planning, scoring — is shared code,
// so the two paths can only diverge in the solver itself.
type cascadeState interface {
	// prepare starts from the pristine base with the event's load scale
	// and the plan's generator outages and dispatch targets applied.
	prepare(ev Event, fp fleetPlan)
	// trip applies additional branch outages cumulatively.
	trip(branches []int)
	// solve runs the Newton power flow at the current cumulative state.
	solve(opts powerflow.Options) (*powerflow.Result, error)
	// solveOrFallback is solve, escalated on failure to Newton from the
	// case start profile with the Q limits relaxed, which relaxed reports:
	// contingency.Worker.SolveOrFallback.
	solveOrFallback(opts powerflow.Options) (res *powerflow.Result, relaxed bool, err error)
	// shed is the collapse estimate: the demand (MW) to shed before the
	// current state solves.
	shed() float64
	// setGenP overrides a unit's dispatch (between-stage redispatch).
	setGenP(g int, p float64)
	// inService / effP expose the effective fleet for redispatch planning.
	inService(g int) bool
	effP(g int) float64
}

// viewState is the fast path: the pooled contingency.Worker's reusable
// OutageView over the shared immutable base, solved by its persistent
// ViewSolver (patched Ybus, compiled Jacobian pattern, reused LU symbolic
// analysis). Stacking a cascade's cumulative trip set is exactly the
// rank-1 patch stack ViewSolver already applies per solve, and the
// Q-relaxed retry and the shed estimate run on the same view.
type viewState struct{ w *contingency.Worker }

func (s viewState) prepare(ev Event, fp fleetPlan) {
	v := s.w.View()
	v.Reset()
	for _, g := range fp.out {
		v.OutGen(g)
	}
	for _, t := range fp.targets {
		v.SetGenP(t.gen, t.p)
	}
	if ls := ev.loadScale(); ls != 1 {
		v.ScaleLoads(ls)
	}
}

func (s viewState) trip(branches []int) {
	for _, k := range branches {
		s.w.View().OutBranch(k)
	}
}

func (s viewState) solve(opts powerflow.Options) (*powerflow.Result, error) {
	return s.w.Solve(opts)
}

func (s viewState) solveOrFallback(opts powerflow.Options) (*powerflow.Result, bool, error) {
	return s.w.SolveOrFallback(opts)
}

func (s viewState) shed() float64 { return s.w.ShedToSolve() }

func (s viewState) setGenP(g int, p float64) { s.w.View().SetGenP(g, p) }
func (s viewState) inService(g int) bool     { return s.w.View().GenInService(g) }
func (s viewState) effP(g int) float64       { return s.w.View().Gen(g).P }

// runCascade drives one cascade study over the backend st, using w's
// branch mask for the cumulative trip set and its islanding check. Both
// backends run this exact loop — islanding, scoring, trip selection and
// redispatch are literally shared code — so the differential harness
// checking identical trip sequences and matching stage metrics pins the
// solver backends against each other, nothing else. Production callers
// pass viewState{w}. The trip bits are cleared before it returns, so w
// goes back to its pool with an all-false mask.
func runCascade(w *contingency.Worker, st cascadeState, n *model.Network, base *powerflow.Result, ev Event, opts Options) *CascadeResult {
	fp := planGenOutages(n, ev.Gens)
	r := &CascadeResult{
		Event:        ev,
		GensOut:      fp.out,
		LostGenMW:    fp.lostMW,
		GenDeficitMW: fp.deficitMW,
	}
	st.prepare(ev, fp)

	mask := w.Mask()
	ls := ev.loadScale()
	warm := &base.Voltages
	trips := ev.Branches
	for stage := 0; ; stage++ {
		// Deduplicate and validate this stage's trips against the cumulative
		// mask, in candidate order — both backends see the identical set.
		var applied []int
		for _, k := range trips {
			if k < 0 || k >= len(n.Branches) || !n.Branches[k].InService || mask[k] {
				continue
			}
			mask[k] = true
			applied = append(applied, k)
		}
		st.trip(applied)
		r.TrippedBranches = append(r.TrippedBranches, applied...)
		sg := Stage{Index: stage, Trips: applied}

		// Islanding first, over the cumulative trip set: a split sheds all
		// demand outside the slack island (at the event's load scale) and
		// ends propagation — exactly the N-1 sweep's rule, generalized N-k.
		if shed, split := w.IslandedLoad(ls); split {
			sg.Islanded = true
			r.LoadShedMW += shed
			r.Outcome = OutcomeIslanded
			r.Stages = append(r.Stages, sg)
			break
		}

		// The contingency sweeps' escalation: Newton, Newton with the Q
		// limits relaxed, then the solvability bisection for genuine
		// collapse.
		res, relaxed, err := st.solveOrFallback(powerflow.Options{EnforceQLimits: true, Warm: warm})
		if err != nil || !res.Converged {
			sg.Converged = false
			r.LoadShedMW += st.shed()
			r.Outcome = OutcomeCollapse
			r.Stages = append(r.Stages, sg)
			break
		}
		sg.Converged = true
		sg.Algorithm = res.Algorithm.String()
		sg.QLimitsRelaxed = relaxed
		// The contingency scorer's thermal/voltage rules over the
		// surviving branches: flows on tripped branches are meaningless.
		sg.MinVoltagePU = res.MinVm
		sg.MaxLoadingPct, sg.Overloads, sg.VoltViols = contingency.Violations(res, n, mask, overloadPct, voltLow, voltHigh)

		sg.NextTrips = selectTrips(res, mask, opts)
		if len(sg.NextTrips) == 0 {
			r.Outcome = OutcomeStable
			r.Stages = append(r.Stages, sg)
			break
		}
		if stage >= opts.MaxDepth {
			r.Outcome = OutcomeDepthLimit
			r.Stages = append(r.Stages, sg)
			break
		}
		if opts.Redispatch {
			targets, moved := planRedispatch(n, res, st.inService, st.effP)
			for _, t := range targets {
				st.setGenP(t.gen, t.p)
			}
			sg.RedispatchMW = moved
		}
		r.Stages = append(r.Stages, sg)
		// Result voltages are freshly allocated per solve, so the previous
		// stage's profile survives as the next stage's warm start.
		warm = &res.Voltages
		trips = sg.NextTrips
	}
	for _, k := range r.TrippedBranches {
		mask[k] = false
	}
	r.Depth = len(r.Stages) - 1
	r.computeSeverity()
	return r
}

// selectTrips is the protection rule: every surviving branch loaded at or
// above TripPct is a candidate, ranked by loading descending with branch
// index breaking ties, capped at MaxTripsPerStage. Fully deterministic —
// the differential harness asserts the two backends select identical
// sequences.
func selectTrips(res *powerflow.Result, mask []bool, opts Options) []int {
	type cand struct {
		k   int
		pct float64
	}
	var cs []cand
	for bk, f := range res.Flows {
		if mask[bk] || f.LoadingPct < opts.TripPct {
			continue
		}
		cs = append(cs, cand{k: bk, pct: f.LoadingPct})
	}
	if len(cs) == 0 {
		return nil
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].pct != cs[b].pct {
			return cs[a].pct > cs[b].pct
		}
		return cs[a].k < cs[b].k
	})
	if len(cs) > opts.MaxTripsPerStage {
		cs = cs[:opts.MaxTripsPerStage]
	}
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.k
	}
	return out
}

// computeSeverity accumulates the composite ranking score over all stages
// — the contingency severity rule summed along the cascade (overload
// excess capped per branch, voltage deviations, shed and deficit MW, and
// the collapse penalty).
func (r *CascadeResult) computeSeverity() {
	s := 0.0
	for i := range r.Stages {
		s = contingency.AddViolationScore(s, r.Stages[i].Overloads, r.Stages[i].VoltViols, overloadPct)
	}
	s += r.LoadShedMW + r.GenDeficitMW
	if r.Outcome == OutcomeCollapse {
		s += 50
	}
	r.Severity = s
}

// Cascade runs one cascade study from the initiating event over a solved
// base case. The cumulative trip set stacks as rank-1 Ybus patches on a
// pooled Worker. A seed branch that is out of range or out of service, or
// a generator index out of range, fails with an error wrapping
// contingency.ErrInvalidOutage; an in-range generator that is out of
// service or the sole slack machine is dropped, as for Monte Carlo draws.
func Cascade(n *model.Network, base *powerflow.Result, ev Event, opts Options) (*CascadeResult, error) {
	if base == nil || !base.Converged || n.SlackBus() < 0 {
		return nil, ErrNoBase
	}
	if err := checkIndices(n, ev.Branches, slices.Values(ev.Gens)); err != nil {
		return nil, err
	}
	opts.fill()
	var r *CascadeResult
	work := opts.Pool.Run(n, 1, 1, nil, func(w *contingency.Worker, _ int) {
		r = runCascade(w, viewState{w}, n, base, ev, opts)
	})
	recordScenario(opts.Metrics, "cascade", 1, 0, work)
	return r, nil
}

// checkIndices rejects, wrapping contingency.ErrInvalidOutage, a branch
// that is out of range or out of service, or a generator out of range.
func checkIndices(n *model.Network, branches []int, gens iter.Seq[int]) error {
	for _, k := range branches {
		if k < 0 || k >= len(n.Branches) || !n.Branches[k].InService {
			return fmt.Errorf("%w: branch %d is out of range or out of service", contingency.ErrInvalidOutage, k)
		}
	}
	for g := range gens {
		if g < 0 || g >= len(n.Gens) {
			return fmt.Errorf("%w: generator %d is out of range", contingency.ErrInvalidOutage, g)
		}
	}
	return nil
}

// SweepResult aggregates a full cascade screening: one study per
// in-service seed branch.
type SweepResult struct {
	Case  string `json:"case"`
	Seeds int    `json:"seeds"`
	// Screened counts seeds certified non-cascading by the DC pre-screen
	// (no AC work done).
	Screened int `json:"screened"`
	// Stable / Cascaded / Islanded / Collapsed / DepthLimited classify the
	// studied seeds; Cascaded counts those that propagated beyond the seed.
	Stable       int `json:"stable"`
	Cascaded     int `json:"cascaded"`
	Islanded     int `json:"islanded"`
	Collapsed    int `json:"collapsed"`
	DepthLimited int `json:"depth_limited"`
	// WorstSeed is the branch index of the highest-severity cascade (−1
	// when no seed produced a nonzero score).
	WorstSeed     int     `json:"worst_seed"`
	WorstSeverity float64 `json:"worst_severity"`
	MaxShedMW     float64 `json:"max_shed_mw"`
	// Results holds one entry per network branch; nil for branches not
	// seeded (out of service).
	Results []*CascadeResult `json:"results"`
}

// screenRisePct is the loading increase over base (in percentage points)
// below which a branch counts as unchanged by the seed outage;
// screenTripMarginPct is the clearance an unchanged branch must keep
// below the trip threshold. Both absorb the MW-only DC prediction's
// reactive blind spot — the conservatism test measures the real error on
// the shipped cases (observed up to ~11 points) and these leave margin
// beyond it.
const (
	screenRisePct       = 5.0
	screenTripMarginPct = 15.0
)

// screenSeed DC-certifies seed outage k as non-cascading: every
// surviving rated branch must sit below the absolute screenThreshold
// bar, or be essentially unchanged from its base loading while clearing
// the trip threshold with margin. m is the base's distribution factors;
// preMW holds base's branch flows (MW); base supplies the loadings.
// Returns the predicted worst loading for the screened record. Radial
// seeds (ErrIslanding) are never certified — islanding sheds load, which
// is exactly what the screen must not wave through.
func screenSeed(n *model.Network, m *ptdf.Matrix, base *powerflow.Result, preMW []float64, k int, opts Options) (bool, float64) {
	flows, err := m.PostOutageFlows(preMW, k)
	if err != nil {
		return false, 0
	}
	unchangedBar := opts.TripPct - screenTripMarginPct
	var worst float64
	for b, br := range n.Branches {
		if !br.InService || br.RateMVA <= 0 || b == k {
			continue
		}
		pct := 100 * math.Abs(flows[b]) / br.RateMVA
		if pct > worst {
			worst = pct
		}
		if pct < screenThreshold {
			continue
		}
		if pct < unchangedBar && pct <= base.Flows[b].LoadingPct+screenRisePct {
			continue
		}
		return false, 0
	}
	return true, worst
}

// Sweep runs a cascade study seeded from every in-service branch outage.
// With Options.DCScreen, seeds the DC re-screen (via the lazy LODF memo,
// see screenSeed) certifies as non-cascading are recorded OutcomeScreened
// with no AC work. The distribution factors are the pool's outage base's,
// as for the N-1 screener; a network they cannot be built for is swept
// unscreened.
func Sweep(n *model.Network, base *powerflow.Result, opts Options) (*SweepResult, error) {
	if base == nil || !base.Converged || n.SlackBus() < 0 {
		return nil, ErrNoBase
	}
	opts.fill()

	sw := &SweepResult{Case: n.Name, WorstSeed: -1, Results: make([]*CascadeResult, len(n.Branches))}
	seeds := n.InServiceBranches()
	// Seed i's event lists seeds[i] in place: one backing array serves
	// every result's Event.Branches.
	seedEvent := func(i int) Event { return Event{Branches: seeds[i : i+1 : i+1]} }
	var certify func(i int) bool
	var m *ptdf.Matrix
	if opts.DCScreen {
		m, _ = opts.Pool.Base(n).PTDF()
	}
	if m != nil {
		preMW := make([]float64, len(n.Branches))
		for k := range n.Branches {
			preMW[k] = base.Flows[k].FromP
		}
		certify = func(i int) bool {
			secure, worst := screenSeed(n, m, base, preMW, seeds[i], opts)
			if secure {
				sw.Results[seeds[i]] = &CascadeResult{Event: seedEvent(i), Outcome: OutcomeScreened, ScreenedPct: worst}
			}
			return secure
		}
	}
	work := opts.Pool.Run(n, opts.Workers, len(seeds), certify, func(w *contingency.Worker, i int) {
		sw.Results[seeds[i]] = runCascade(w, viewState{w}, n, base, seedEvent(i), opts)
	})

	for k, r := range sw.Results {
		if r == nil {
			continue
		}
		sw.Seeds++
		switch r.Outcome {
		case OutcomeScreened:
			sw.Screened++
		case OutcomeStable:
			sw.Stable++
		case OutcomeIslanded:
			sw.Islanded++
		case OutcomeCollapse:
			sw.Collapsed++
		case OutcomeDepthLimit:
			sw.DepthLimited++
		}
		if r.Depth > 0 {
			sw.Cascaded++
		}
		if r.LoadShedMW > sw.MaxShedMW {
			sw.MaxShedMW = r.LoadShedMW
		}
		if r.Severity > sw.WorstSeverity {
			sw.WorstSeverity = r.Severity
			sw.WorstSeed = k
		}
	}
	recordScenario(opts.Metrics, "cascade_sweep", sw.Seeds, sw.Screened, work)
	return sw, nil
}
