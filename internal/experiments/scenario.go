package experiments

import (
	"context"
	"fmt"
	"io"

	"gridmind/internal/cases"
	"gridmind/internal/engine"
	"gridmind/internal/scenario"
)

// ScenarioRow aggregates the scenario engine's three studies on one case:
// the full N-k cascade sweep, a 24-step diurnal episode, and a seeded
// Monte Carlo reliability estimate. One row per case, all three studies
// sharing the case's compiled artifacts through the engine.
type ScenarioRow struct {
	Case string `json:"case"`

	// Cascade sweep.
	Seeds         int     `json:"seeds"`
	Screened      int     `json:"screened"`
	Stable        int     `json:"stable"`
	Cascaded      int     `json:"cascaded"`
	Islanded      int     `json:"islanded"`
	Collapsed     int     `json:"collapsed"`
	WorstSeed     int     `json:"worst_seed"`
	WorstSeverity float64 `json:"worst_severity"`
	MaxShedMW     float64 `json:"max_shed_mw"`

	// Episode.
	EpisodeSteps    int     `json:"episode_steps"`
	EpisodeMargin   float64 `json:"episode_min_margin_pct"`
	EpisodeMinVolt  float64 `json:"episode_min_voltage_pu"`
	EpisodeWorstIdx int     `json:"episode_worst_step"`

	// Monte Carlo reliability (95% Wilson intervals).
	MCSamples  int     `json:"mc_samples"`
	LOLP       float64 `json:"lolp"`
	LOLPLo     float64 `json:"lolp_lo"`
	LOLPHi     float64 `json:"lolp_hi"`
	OverloadP  float64 `json:"overload_p"`
	MeanShedMW float64 `json:"mc_mean_shed_mw"`
}

// scenarioMCSamples keeps the Monte Carlo leg cheap enough for the bench
// while leaving the Wilson intervals meaningful.
const scenarioMCSamples = 200

// Scenario runs the scenario bench on cfg.Cases (default: the five IEEE
// systems): for each case one cascade sweep with the DC screen, one
// 24-step diurnal episode riding the case's load and solar profiles, and
// one fixed-seed Monte Carlo reliability run — all on one shared engine,
// so each case compiles its structure exactly once across the three
// studies.
func Scenario(ctx context.Context, cfg Config) ([]ScenarioRow, error) {
	cfg.fill()
	eng := engine.New()
	var rows []ScenarioRow
	for _, name := range cfg.Cases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n, err := eng.Pristine(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		// State keys are per case: BasePF memoizes by key, and the pool
		// segregates workers per network under one key.
		stateKey := "scenario/" + name
		base, err := eng.BasePF(stateKey, n)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s base: %w", name, err)
		}
		art := eng.Artifacts(n)
		opts := scenario.Options{
			BaseYbus: art.Ybus(),
			Topology: art.Topology(),
			Reorder:  art.Ordering(),
			Pool:     eng.SweepPool(stateKey),
			DCScreen: true,
		}
		if m, err := art.PTDF(); err == nil {
			opts.PTDF = m
		}

		sw, err := scenario.Sweep(n, base, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sweep: %w", name, err)
		}

		const steps = 24
		load := cases.LoadCurve(steps, 11)
		solar := cases.SolarCurve(steps, 12)
		g := len(n.Gens) - 1
		capMW := n.Gens[g].PMax / 2
		eps := make([]scenario.EpisodeStep, steps)
		for i := range eps {
			eps[i] = scenario.EpisodeStep{
				LoadScale: load[i],
				GenP:      map[int]float64{g: solar[i] * capMW},
			}
		}
		epOpts := opts
		epOpts.DCScreen = false
		ep, err := scenario.Episode(n, base, eps, epOpts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s episode: %w", name, err)
		}

		mc, err := scenario.RunMC(n, base, scenario.MCOptions{
			Samples:          scenarioMCSamples,
			Seed:             2026,
			BranchOutageProb: 0.01,
			GenOutageProb:    0.005,
			LoadSigma:        0.03,
			Cascade:          epOpts,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s monte carlo: %w", name, err)
		}

		rows = append(rows, ScenarioRow{
			Case:            name,
			Seeds:           sw.Seeds,
			Screened:        sw.Screened,
			Stable:          sw.Stable,
			Cascaded:        sw.Cascaded,
			Islanded:        sw.Islanded,
			Collapsed:       sw.Collapsed,
			WorstSeed:       sw.WorstSeed,
			WorstSeverity:   sw.WorstSeverity,
			MaxShedMW:       sw.MaxShedMW,
			EpisodeSteps:    ep.Converged,
			EpisodeMargin:   ep.MinMarginPct,
			EpisodeMinVolt:  ep.MinVoltagePU,
			EpisodeWorstIdx: ep.WorstStep,
			MCSamples:       mc.Samples,
			LOLP:            mc.LossOfLoad.P,
			LOLPLo:          mc.LossOfLoad.Lo,
			LOLPHi:          mc.LossOfLoad.Hi,
			OverloadP:       mc.Overload.P,
			MeanShedMW:      mc.MeanShedMW,
		})
	}
	return rows, nil
}

// FormatScenario renders the scenario bench table.
func FormatScenario(w io.Writer, rows []ScenarioRow) {
	fmt.Fprintln(w, "Scenario engine — cascade sweep / diurnal episode / Monte Carlo reliability")
	fmt.Fprintf(w, "%-9s %6s %6s %6s %6s %6s %9s %10s %9s %8s %18s %9s\n",
		"Case", "Seeds", "Scrn", "Stable", "Casc", "Isl", "WorstSev", "MaxShedMW", "EpMargin", "EpVmin", "LOLP[95%CI]", "EENS(MW)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %6d %6d %6d %6d %6d %9.1f %10.1f %8.1f%% %8.4f %6.3f[%.3f,%.3f] %9.2f\n",
			r.Case, r.Seeds, r.Screened, r.Stable, r.Cascaded, r.Islanded,
			r.WorstSeverity, r.MaxShedMW, r.EpisodeMargin, r.EpisodeMinVolt,
			r.LOLP, r.LOLPLo, r.LOLPHi, r.MeanShedMW)
	}
}
