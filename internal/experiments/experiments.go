// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): Figure 3's three panels (success rate by model,
// execution-time distribution, execution time versus case complexity) and
// Table 1 (contingency-analysis agent performance), plus the Table 2 case
// inventory. The same runners back cmd/gridmind-bench and the root
// bench_test.go targets; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"gridmind/internal/agents"
	"gridmind/internal/cases"
	"gridmind/internal/llm"
	"gridmind/internal/metrics"
	"gridmind/internal/model"
	"gridmind/internal/simclock"
)

// Config scopes an experiment run.
type Config struct {
	// Models to evaluate; nil selects the paper's six.
	Models []string
	// Runs per (model, case) cell; zero selects 5 (the paper's count).
	Runs int
	// Case is the network for fixed-case experiments; "" selects case118.
	Case string
	// Cases is the sweep for the scaling panel; nil selects all five.
	Cases []string
}

func (c *Config) fill() {
	if len(c.Models) == 0 {
		c.Models = llm.ModelNames()
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
	if c.Case == "" {
		c.Case = "case118"
	}
	if len(c.Cases) == 0 {
		c.Cases = cases.Names()
	}
}

// runOne executes a single query through a fresh coordinator with a
// simulated backend, returning the turn outcome and simulated latency.
func runOne(ctx context.Context, modelName, query string, salt int64) (*agents.Exchange, time.Duration, *metrics.Recorder, error) {
	profile, ok := llm.ProfileByName(modelName)
	if !ok {
		return nil, 0, nil, fmt.Errorf("experiments: unknown model %q", modelName)
	}
	clock := simclock.NewSim(time.Date(2025, 9, 2, 0, 0, 0, 0, time.UTC))
	rec := metrics.NewRecorder()
	coord := agents.NewCoordinator(agents.Config{
		Client:        llm.NewSim(profile),
		Clock:         clock,
		Recorder:      rec,
		AbsorbLatency: true,
		Salt:          salt,
	})
	start := clock.Now()
	ex, err := coord.Handle(ctx, query)
	return ex, clock.Elapsed(start), rec, err
}

// --- Figure 3 (left): success rate by model ---

// SuccessRow is one bar of Figure 3's left panel.
type SuccessRow struct {
	Model       string  `json:"model"`
	Runs        int     `json:"runs"`
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"success_rate_pct"`
}

// Figure3Success reproduces the left panel: ACOPF agent success rate on
// the fixed case across models. The paper reports 100% everywhere.
func Figure3Success(ctx context.Context, cfg Config) ([]SuccessRow, error) {
	cfg.fill()
	query := solveQuery(cfg.Case)
	var rows []SuccessRow
	for _, m := range cfg.Models {
		row := SuccessRow{Model: m, Runs: cfg.Runs}
		for r := 0; r < cfg.Runs; r++ {
			ex, _, _, err := runOne(ctx, m, query, int64(r))
			if err != nil {
				return nil, err
			}
			if ex.Success {
				row.Successes++
			}
		}
		row.SuccessRate = 100 * float64(row.Successes) / float64(cfg.Runs)
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Figure 3 (middle): execution time distribution ---

// DistRow is one box of the middle panel (seconds).
type DistRow struct {
	Model  string  `json:"model"`
	Min    float64 `json:"min_s"`
	Q1     float64 `json:"q1_s"`
	Median float64 `json:"median_s"`
	Q3     float64 `json:"q3_s"`
	Max    float64 `json:"max_s"`
	Mean   float64 `json:"mean_s"`
}

// Figure3Distribution reproduces the middle panel: the distribution of
// end-to-end execution time per model on the fixed case over Runs runs.
func Figure3Distribution(ctx context.Context, cfg Config) ([]DistRow, error) {
	cfg.fill()
	query := solveQuery(cfg.Case)
	var rows []DistRow
	for _, m := range cfg.Models {
		lats := make([]float64, 0, cfg.Runs)
		for r := 0; r < cfg.Runs; r++ {
			ex, lat, _, err := runOne(ctx, m, query, int64(1000+r))
			if err != nil {
				return nil, err
			}
			if !ex.Success {
				return nil, fmt.Errorf("experiments: %s run %d failed: %s", m, r, ex.Reply)
			}
			lats = append(lats, lat.Seconds())
		}
		sort.Float64s(lats)
		rows = append(rows, DistRow{
			Model:  m,
			Min:    lats[0],
			Q1:     metrics.Quantile(lats, 0.25),
			Median: metrics.Quantile(lats, 0.5),
			Q3:     metrics.Quantile(lats, 0.75),
			Max:    lats[len(lats)-1],
			Mean:   meanF(lats),
		})
	}
	return rows, nil
}

// --- Figure 3 (right): execution time vs case complexity ---

// ScalePoint is one (model, case) marker of the right panel.
type ScalePoint struct {
	Model   string  `json:"model"`
	Case    string  `json:"case"`
	CaseNum int     `json:"case_num"`
	MeanS   float64 `json:"mean_s"`
}

// Figure3Scaling reproduces the right panel: execution time against IEEE
// case number. The paper finds no strong trend (LLM latency dominates the
// solver's case-size dependence).
func Figure3Scaling(ctx context.Context, cfg Config) ([]ScalePoint, error) {
	cfg.fill()
	var pts []ScalePoint
	for _, m := range cfg.Models {
		for _, cs := range cfg.Cases {
			var sum float64
			for r := 0; r < cfg.Runs; r++ {
				ex, lat, _, err := runOne(ctx, m, solveQuery(cs), int64(2000+r))
				if err != nil {
					return nil, err
				}
				if !ex.Success {
					return nil, fmt.Errorf("experiments: %s on %s failed: %s", m, cs, ex.Reply)
				}
				sum += lat.Seconds()
			}
			pts = append(pts, ScalePoint{
				Model: m, Case: cs, CaseNum: caseNumber(cs), MeanS: sum / float64(cfg.Runs),
			})
		}
	}
	return pts, nil
}

// --- Table 1: CA agent performance ---

// Table1Row mirrors the paper's Table 1 columns.
type Table1Row struct {
	Model          string  `json:"model"`
	TimeSeconds    float64 `json:"time_s"`
	CriticalLines  []int   `json:"critical_lines_idx"`
	MaxOverloadPct float64 `json:"max_overload_pct"`
}

// Table1 reproduces the CA agent experiment: per model, identify the
// top-5 critical lines of the fixed case and the maximum overload
// percentage. The expected shape: five of six models agree exactly, the
// divergent profile (GPT-5 Mini's thermal-first ranking) differs in one
// line with a higher overload, and execution times span ~25-90 s with
// GPT-5 slowest.
func Table1(ctx context.Context, cfg Config) ([]Table1Row, error) {
	cfg.fill()
	query := fmt.Sprintf("Identify the top-5 most critical lines in %s contingency analysis", displayCase(cfg.Case))
	var rows []Table1Row
	for _, m := range cfg.Models {
		ex, lat, _, err := runOne(ctx, m, query, 42)
		if err != nil {
			return nil, err
		}
		if !ex.Success {
			return nil, fmt.Errorf("experiments: %s table1 failed: %s", m, ex.Reply)
		}
		row := Table1Row{Model: m, TimeSeconds: lat.Seconds()}
		// Pull the ranked lines from the final structured tool result of
		// the CA turn (the same data the narration cites).
		for _, turn := range ex.Turns {
			for _, step := range turn.Steps {
				res, ok := step.Result.(map[string]any)
				if !ok || step.Tool != "run_n1_contingency_analysis" {
					continue
				}
				if crit, ok := res["critical"].([]any); ok {
					row.CriticalLines = row.CriticalLines[:0]
					for _, c := range crit {
						cm := c.(map[string]any)
						row.CriticalLines = append(row.CriticalLines, int(cm["branch"].(float64)))
					}
				}
				if v, ok := res["max_overload_pct"].(float64); ok {
					row.MaxOverloadPct = v
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Table 2: case inventory ---

// Table2 returns the supported-case component counts.
func Table2() ([]model.Summary, error) {
	return cases.Summaries()
}

// --- helpers ---

func solveQuery(caseName string) string {
	return "Solve " + displayCase(caseName)
}

func displayCase(caseName string) string {
	return "IEEE " + strings.TrimPrefix(caseName, "case")
}

func caseNumber(caseName string) int {
	n := 0
	fmt.Sscanf(strings.TrimPrefix(caseName, "case"), "%d", &n)
	return n
}

func meanF(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
