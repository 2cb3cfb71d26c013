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
	// QLimitsRelaxed marks a solution found only with the generators'
	// reactive limits relaxed (Worker.SolveOrFallback's second solve).
	QLimitsRelaxed bool `json:"q_limits_relaxed,omitempty"`
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
// so the view path and the materializing test reference read identical
// data).
func scoreGenOutage(out *GenOutageResult, res *powerflow.Result, n *model.Network, opts Options) {
	var scored OutageResult
	scoreOutage(&scored, res, n, nil)
	out.Converged = true
	out.MaxLoadingPct = scored.MaxLoadingPct
	out.Overloads = scored.Overloads
	out.MinVoltagePU = scored.MinVoltagePU
	out.VoltViols = scored.VoltViols
	out.Severity = scored.Severity + out.ReserveDeficitMW
}

// analyzeGen simulates the loss of generator g on the view path into out,
// matching the materializing reference in reference_test.go
// result-for-result (the differential harness enforces this to 1e-9).
// Since the solver re-derives
// the PV/PQ classification from the view in place, and a failed Newton
// solve is retried with the Q limits relaxed on the same view (labelled
// so), a generator sweep materializes nothing. It has no load-shed
// estimate: a unit that fails both solves is recorded as a collapse.
func (w *Worker) analyzeGen(out *GenOutageResult, g int, opts Options) error {
	w.view.Reset()
	lost, deficit, err := prepareGenOutage(w.n, w.view, g)
	if err != nil {
		return err
	}
	*out = GenOutageResult{
		Gen:              g,
		BusID:            w.n.Buses[w.n.Gens[g].Bus].ID,
		LostMW:           lost,
		ReserveDeficitMW: deficit,
	}
	res, relaxed, err := w.SolveOrFallback(powerflow.Options{EnforceQLimits: true})
	if err != nil || !res.Converged {
		out.Converged = false
		out.Severity = out.LostMW + out.ReserveDeficitMW + 50
		return nil
	}
	scoreGenOutage(out, res, w.n, opts)
	out.QLimitsRelaxed = relaxed
	return nil
}

// AnalyzeGenOutage simulates the loss of generator g: its dispatch is
// redistributed to the remaining units in proportion to spare capacity
// (governor-style pickup), then the power flow is re-solved and screened.
// One-shot calls run on a Worker of Options.Pool through SweepPool.Run as
// one item and publish their solve work under kind gen_one; sweeps
// amortize theirs via AnalyzeGenOutages. A network without a slack bus
// fails with ErrNoBase.
func AnalyzeGenOutage(n *model.Network, g int, opts Options) (*GenOutageResult, error) {
	if _, err := opts.base(n); err != nil {
		return nil, err
	}
	out := new(GenOutageResult)
	var err error
	work := opts.Pool.Run(n, 1, 1, nil, func(w *Worker, _ int) {
		err = w.analyzeGen(out, g, opts)
	})
	if err != nil {
		return nil, err
	}
	recordWork(opts.Metrics, "gen_one", work)
	return out, nil
}

// AnalyzeGenOutages sweeps every in-service generator (the "N-1 on
// generation assets" companion of the branch sweep) over Options.Workers
// through SweepPool.Run, returning results in generator order. No network
// is cloned or materialized. A network without a slack bus fails with
// ErrNoBase.
func AnalyzeGenOutages(n *model.Network, opts Options) ([]GenOutageResult, error) {
	if _, err := opts.base(n); err != nil {
		return nil, err
	}
	// analyzeGen rejects out-of-service units and the irreplaceable slack
	// machine; their slots are marked Gen −1 and skipped, not fatal.
	res := make([]GenOutageResult, len(n.Gens))
	work := opts.Pool.Run(n, opts.Workers, len(n.Gens), nil,
		func(w *Worker, g int) {
			if w.analyzeGen(&res[g], g, opts) != nil {
				res[g].Gen = -1
			}
		})
	out := res[:0]
	for _, r := range res {
		if r.Gen >= 0 {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("contingency: no analyzable generator outages in %s", n.Name)
	}
	recordSweep(opts.Metrics, "gen", len(out), 0, work)
	return out, nil
}
