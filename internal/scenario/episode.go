package scenario

import (
	"fmt"
	"maps"

	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// EpisodeStep is one operating point in a time-series episode: a uniform
// demand multiplier (load curve), per-unit dispatch overrides in MW
// (renewable injection profiles), and branches out of service at the
// step. The zero value replays the base operating point.
type EpisodeStep struct {
	LoadScale   float64         `json:"load_scale,omitempty"` // <= 0 means nominal
	GenP        map[int]float64 `json:"gen_p,omitempty"`
	BranchesOut []int           `json:"branches_out,omitempty"`
}

// StepResult is the solved security snapshot of one episode step.
type StepResult struct {
	Step          int     `json:"step"`
	Converged     bool    `json:"converged"`
	Algorithm     string  `json:"algorithm,omitempty"`
	Iterations    int     `json:"iterations"`
	MaxLoadingPct float64 `json:"max_loading_pct"`
	MinVoltagePU  float64 `json:"min_voltage_pu"`
	MaxVoltagePU  float64 `json:"max_voltage_pu"`
	Overloads     int     `json:"overloads"`
	VoltViols     int     `json:"voltage_violations"`
	// MarginPct is the thermal security margin, 100 − MaxLoadingPct
	// (negative when overloaded).
	MarginPct float64 `json:"margin_pct"`
	LossMW    float64 `json:"loss_mw"`
}

// EpisodeResult aggregates a full time-series episode.
type EpisodeResult struct {
	Steps     []StepResult `json:"steps"`
	Converged int          `json:"converged"`
	// WorstStep is the step index with the smallest thermal margin among
	// converged steps (−1 when none converged).
	WorstStep    int     `json:"worst_step"`
	MinMarginPct float64 `json:"min_margin_pct"`
	MinVoltagePU float64 `json:"min_voltage_pu"`
}

// Episode drives a sequence of operating points over one immutable base
// network: each step re-scales demand and re-dispatches units in place on
// the pooled view solver (no clone, no recompilation) and warm-starts
// from the previous step's voltage profile — consecutive operating points
// are close, so steps typically converge in a couple of Newton
// iterations. A step that outages a branch out of range or out of
// service, or overrides the dispatch of a generator out of range, fails
// the episode with an error wrapping contingency.ErrInvalidOutage, as
// Cascade rejects such a seed.
func Episode(n *model.Network, base *powerflow.Result, steps []EpisodeStep, opts Options) (*EpisodeResult, error) {
	if base == nil || !base.Converged || n.SlackBus() < 0 {
		return nil, ErrNoBase
	}
	for si, step := range steps {
		if err := checkIndices(n, step.BranchesOut, maps.Keys(step.GenP)); err != nil {
			return nil, fmt.Errorf("episode step %d: %w", si, err)
		}
	}
	opts.fill()
	var er *EpisodeResult
	work := opts.Pool.Run(n, 1, 1, nil, func(w *contingency.Worker, _ int) {
		er = runEpisode(w, viewState{w}, n, base, steps, opts)
	})
	recordScenario(opts.Metrics, "episode", len(er.Steps), 0, work)
	return er, nil
}

// runEpisode solves every step on the backend st, which the cascade
// driver shares: a step is an event with the step's load scale, its
// dispatch overrides as plan targets and its in-service outaged branches
// as one trip, which w's branch mask carries while the step is scored.
// Production callers pass the pooled worker's view backend, after Episode
// has validated every index the steps name.
func runEpisode(w *contingency.Worker, st cascadeState, n *model.Network, base *powerflow.Result, steps []EpisodeStep, opts Options) *EpisodeResult {
	er := &EpisodeResult{WorstStep: -1, MinMarginPct: 100, MinVoltagePU: base.MinVm}
	warm := &base.Voltages
	mask := w.Mask()
	// Reused across steps: neither backend retains the plan.
	var fp fleetPlan
	for si, step := range steps {
		fp.targets = fp.targets[:0]
		for g, p := range step.GenP {
			fp.targets = append(fp.targets, genTarget{gen: g, p: p})
		}
		st.prepare(Event{LoadScale: step.LoadScale}, fp)
		st.trip(step.BranchesOut)
		res, err := st.solve(powerflow.Options{EnforceQLimits: true, Warm: warm})

		sr := StepResult{Step: si}
		if err != nil || !res.Converged {
			// A failed step breaks the warm-start chain; the next step
			// restarts from the base profile rather than a garbage state.
			warm = &base.Voltages
			er.Steps = append(er.Steps, sr)
			continue
		}
		sr.Converged = true
		sr.Algorithm = res.Algorithm.String()
		sr.Iterations = res.Iterations
		sr.MinVoltagePU = res.MinVm
		sr.MaxVoltagePU = res.MaxVm
		sr.LossMW = res.LossP
		for _, k := range step.BranchesOut {
			mask[k] = true
		}
		maxPct, overloads, viols := contingency.Violations(res, n, mask, overloadPct, voltLow, voltHigh)
		for _, k := range step.BranchesOut {
			mask[k] = false
		}
		sr.MaxLoadingPct, sr.Overloads, sr.VoltViols = maxPct, len(overloads), len(viols)
		sr.MarginPct = 100 - sr.MaxLoadingPct
		er.Converged++
		if sr.MarginPct < er.MinMarginPct || er.WorstStep < 0 {
			er.MinMarginPct = sr.MarginPct
			er.WorstStep = si
		}
		if sr.MinVoltagePU < er.MinVoltagePU {
			er.MinVoltagePU = sr.MinVoltagePU
		}
		er.Steps = append(er.Steps, sr)
		warm = &res.Voltages
	}
	return er
}
