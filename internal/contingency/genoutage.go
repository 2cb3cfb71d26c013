package contingency

import (
	"fmt"

	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// GenOutageResult is the structured record of one generator outage: the
// lost capacity is picked up by the remaining fleet (primarily the slack
// machine in this quasi-steady-state model) and the post-outage power
// flow is screened for violations, mirroring the branch-outage records.
type GenOutageResult struct {
	Gen       int     `json:"gen"`
	BusID     int     `json:"bus_id"`
	LostMW    float64 `json:"lost_mw"`
	Converged bool    `json:"converged"`
	// ReserveDeficitMW is positive when the remaining fleet cannot cover
	// the lost dispatch.
	ReserveDeficitMW float64            `json:"reserve_deficit_mw"`
	MaxLoadingPct    float64            `json:"max_loading_pct"`
	Overloads        []BranchLoading    `json:"overloads,omitempty"`
	MinVoltagePU     float64            `json:"min_voltage_pu"`
	VoltViols        []VoltageViolation `json:"voltage_violations,omitempty"`
	Severity         float64            `json:"severity"`
}

// Describe renders the one-line audit narrative.
func (g *GenOutageResult) Describe() string {
	switch {
	case g.ReserveDeficitMW > 0:
		return fmt.Sprintf("loss of the %.0f MW unit at bus %d exceeds fleet reserve by %.1f MW",
			g.LostMW, g.BusID, g.ReserveDeficitMW)
	case !g.Converged:
		return fmt.Sprintf("loss of the %.0f MW unit at bus %d: post-outage power flow collapse", g.LostMW, g.BusID)
	case len(g.Overloads) > 0:
		return fmt.Sprintf("loss of the %.0f MW unit at bus %d causes %d overload(s), worst %.0f%%",
			g.LostMW, g.BusID, len(g.Overloads), g.MaxLoadingPct)
	default:
		return fmt.Sprintf("loss of the %.0f MW unit at bus %d is secure (max loading %.0f%%)",
			g.LostMW, g.BusID, g.MaxLoadingPct)
	}
}

// prepareGenOutage validates the loss of generator g, applies it to the
// view (status mask + governor-pickup redispatch over the remaining
// fleet's headroom) and returns the lost dispatch and any reserve deficit.
// The view is NOT reset first: mixed N-2 pairs stack a branch outage on
// the same view.
func prepareGenOutage(n *model.Network, view *model.OutageView, g int) (lostMW, deficitMW float64, err error) {
	if g < 0 || g >= len(n.Gens) {
		return 0, 0, fmt.Errorf("contingency: generator %d out of range", g)
	}
	if !n.Gens[g].InService {
		return 0, 0, fmt.Errorf("contingency: generator %d is already out of service", g)
	}
	// A slack-bus unit outage would leave no angle reference if it is the
	// only machine there; reject islanded references early.
	slack := n.SlackBus()
	hasRef := false
	for gi, gen := range n.Gens {
		if gi != g && gen.InService && gen.Bus == slack {
			hasRef = true
		}
	}
	if n.Gens[g].Bus == slack && !hasRef {
		return 0, 0, fmt.Errorf("contingency: generator %d is the only slack machine; its loss has no steady state", g)
	}
	view.OutGen(g)

	lostMW = n.Gens[g].P
	// Governor pickup: spread the lost MW over remaining units' headroom.
	var headroom float64
	for gi, gen := range n.Gens {
		if gi == g || !gen.InService {
			continue
		}
		if h := gen.PMax - gen.P; h > 0 {
			headroom += h
		}
	}
	if headroom < lostMW {
		deficitMW = lostMW - headroom
	}
	pickup := lostMW
	if pickup > headroom {
		pickup = headroom
	}
	if headroom > 0 {
		for gi, gen := range n.Gens {
			if gi == g || !gen.InService {
				continue
			}
			if h := gen.PMax - gen.P; h > 0 {
				view.SetGenP(gi, gen.P+pickup*h/headroom)
			}
		}
	}
	return lostMW, deficitMW, nil
}

// scoreGenOutage fills out's post-solve fields from a converged power
// flow through the branch-outage scoring rule (no branch is out), adding
// the reserve deficit to the severity. n supplies bus IDs and branch
// endpoints (shared between the base network and any materialized view,
// so both paths read identical data).
func scoreGenOutage(out *GenOutageResult, res *powerflow.Result, n *model.Network, opts Options) {
	var scored OutageResult
	scoreOutage(&scored, res, n, -1, -1, opts)
	out.Converged = true
	out.MaxLoadingPct = scored.MaxLoadingPct
	out.Overloads = scored.Overloads
	out.MinVoltagePU = scored.MinVoltagePU
	out.VoltViols = scored.VoltViols
	out.Severity = scored.Severity + out.ReserveDeficitMW
}

// genSweepContext is the zero-clone generator-outage analysis state: one
// reusable view over the shared base plus one ViewSolver whose patched
// Ybus, compiled Jacobian and LU symbolic analysis persist across units.
// Since the solver re-derives the PV/PQ classification from the view in
// place, a generator sweep materializes nothing on the happy path.
type genSweepContext struct {
	n      *model.Network
	view   *model.OutageView
	solver *powerflow.ViewSolver // nil when the base fails to classify
}

// newGenSweepContext prepares a generator-sweep context. baseY (optional)
// is the shared base admittance matrix to value-copy; nil builds one.
func newGenSweepContext(n *model.Network, baseY *model.Ybus) *genSweepContext {
	ctx := &genSweepContext{n: n, view: model.NewOutageView(n)}
	ctx.solver, _ = powerflow.NewViewSolver(n, baseY)
	return ctx
}

// analyzeGen simulates the loss of generator g on the view path, matching
// analyzeGenOutageMaterialize result-for-result (the differential harness
// enforces this to 1e-9).
func (c *genSweepContext) analyzeGen(g int, opts Options) (*GenOutageResult, error) {
	if c.solver == nil {
		return analyzeGenOutageMaterialize(c.n, g, opts)
	}
	c.view.Reset()
	lost, deficit, err := prepareGenOutage(c.n, c.view, g)
	if err != nil {
		return nil, err
	}
	out := &GenOutageResult{
		Gen:              g,
		BusID:            c.n.Buses[c.n.Gens[g].Bus].ID,
		LostMW:           lost,
		ReserveDeficitMW: deficit,
	}
	res, err := c.solver.Solve(c.view, powerflow.Options{EnforceQLimits: true})
	if err != nil || !res.Converged {
		res, err = powerflow.Solve(c.view.Materialize(), powerflow.Options{Algorithm: powerflow.FastDecoupled})
	}
	if err != nil || !res.Converged {
		out.Converged = false
		out.Severity = out.LostMW + out.ReserveDeficitMW + 50
		return out, nil
	}
	scoreGenOutage(out, res, c.n, opts)
	return out, nil
}

// AnalyzeGenOutage simulates the loss of generator g: its dispatch is
// redistributed to the remaining units in proportion to spare capacity
// (governor-style pickup), then the power flow is re-solved and screened.
// One-shot calls build a fresh view context; sweeps amortize theirs via
// AnalyzeGenOutages. With opts.ReferenceClone it runs the legacy
// materialize-and-solve path instead (the differential-test reference).
func AnalyzeGenOutage(n *model.Network, g int, opts Options) (*GenOutageResult, error) {
	opts.fill()
	if opts.ReferenceClone {
		return analyzeGenOutageMaterialize(n, g, opts)
	}
	ctx := opts.Pool.acquireGen(n, opts.BaseYbus)
	defer opts.Pool.releaseGen(ctx)
	return ctx.analyzeGen(g, opts)
}

// analyzeGenOutageMaterialize is the legacy implementation — view
// materialized into a network, solved through the general-purpose solver —
// kept as the reference the differential harness pins the in-place
// classification path against.
func analyzeGenOutageMaterialize(n *model.Network, g int, opts Options) (*GenOutageResult, error) {
	view := model.NewOutageView(n)
	lost, deficit, err := prepareGenOutage(n, view, g)
	if err != nil {
		return nil, err
	}
	out := &GenOutageResult{
		Gen:              g,
		BusID:            n.Buses[n.Gens[g].Bus].ID,
		LostMW:           lost,
		ReserveDeficitMW: deficit,
	}
	// The outage touches only generation, so Materialize copies the
	// generator slice and shares everything else with the base.
	post := view.Materialize()

	res, err := powerflow.Solve(post, powerflow.Options{EnforceQLimits: true})
	if err != nil || !res.Converged {
		res, err = powerflow.Solve(post, powerflow.Options{Algorithm: powerflow.FastDecoupled})
	}
	if err != nil || !res.Converged {
		out.Converged = false
		out.Severity = out.LostMW + out.ReserveDeficitMW + 50
		return out, nil
	}
	scoreGenOutage(out, res, post, opts)
	return out, nil
}

// AnalyzeGenOutages sweeps every in-service generator (the "N-1 on
// generation assets" companion of the branch sweep), returning results in
// generator order. The whole sweep shares one zero-clone solve context, so
// no network is cloned or materialized on the happy path.
func AnalyzeGenOutages(n *model.Network, opts Options) ([]GenOutageResult, error) {
	opts.fill()
	// Lazily built: reference-mode sweeps never pay for the solver context.
	var ctx *genSweepContext
	defer func() { opts.Pool.releaseGen(ctx) }()
	var out []GenOutageResult
	for g, gen := range n.Gens {
		if !gen.InService {
			continue
		}
		var r *GenOutageResult
		var err error
		if opts.ReferenceClone {
			r, err = analyzeGenOutageMaterialize(n, g, opts)
		} else {
			if ctx == nil {
				ctx = opts.Pool.acquireGen(n, opts.BaseYbus)
			}
			r, err = ctx.analyzeGen(g, opts)
		}
		if err != nil {
			// The irreplaceable slack machine is skipped, not fatal.
			continue
		}
		out = append(out, *r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("contingency: no analyzable generator outages in %s", n.Name)
	}
	recordSweep(opts.Metrics, "gen", len(out), 0)
	return out, nil
}
