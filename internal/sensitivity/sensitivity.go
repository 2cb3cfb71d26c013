// Package sensitivity implements the paper's §B.4 "sensitivity analysis
// (parameter modifications with impact assessment)": first-order cost
// sensitivities from the ACOPF's locational marginal prices, exact impact
// assessment by warm-started re-solves, and the consistency check between
// the two that grounds every sensitivity the agents report.
package sensitivity

import (
	"errors"
	"fmt"
	"sort"

	"gridmind/internal/model"
	"gridmind/internal/opf"
)

// Impact is the measured effect of one load modification.
type Impact struct {
	BusID   int     `json:"bus_id"`
	DeltaMW float64 `json:"delta_mw"`
	// LMPPredicted is the first-order cost prediction: LMP·ΔMW ($/h).
	LMPPredicted float64 `json:"lmp_predicted"`
	// CostDelta is the exact re-solved cost change ($/h).
	CostDelta float64 `json:"cost_delta"`
	// CostPerMW is the realized marginal cost over the step.
	CostPerMW float64 `json:"cost_per_mw"`
	// MinVoltagePU and MaxLoadingPct describe the modified operating
	// point.
	MinVoltagePU  float64 `json:"min_voltage_pu"`
	MaxLoadingPct float64 `json:"max_loading_pct"`
	Solved        bool    `json:"solved"`
}

// ErrNoSolution reports a missing or unsolved base solution.
var ErrNoSolution = errors.New("sensitivity: a solved base ACOPF is required")

// LoadImpacts measures the impact of adding deltaMW (and proportional
// MVAr at 0.98 power factor) at each listed bus, re-solving the ACOPF
// warm-started from the base solution so all results live in one basin.
//
// kkt, when non-nil, is the solver context to run the re-solves in —
// pass one checked out of the serving engine's pool (AcquireOPF) so
// impact sweeps reuse the case's already-compiled KKT pattern instead of
// compiling a private one per sweep. nil falls back to a fresh context.
func LoadImpacts(n *model.Network, base *opf.Solution, busIDs []int, deltaMW float64, kkt *opf.Context) ([]Impact, error) {
	if base == nil || !base.Solved {
		return nil, ErrNoSolution
	}
	if deltaMW == 0 {
		return nil, errors.New("sensitivity: deltaMW must be nonzero")
	}
	// One solver context across all per-bus re-solves: adding a load leaves
	// the network topology (and so the compiled KKT pattern + LDLᵀ symbolic
	// analysis) unchanged, so only the first re-solve compiles anything —
	// and nothing at all when the pooled context has seen the case before.
	ctx := kkt
	if ctx == nil {
		ctx = opf.NewContext()
	}
	out := make([]Impact, 0, len(busIDs))
	for _, id := range busIDs {
		bi := n.BusByID(id)
		if bi < 0 {
			return nil, fmt.Errorf("sensitivity: bus %d not in %s", id, n.Name)
		}
		imp := Impact{
			BusID:        id,
			DeltaMW:      deltaMW,
			LMPPredicted: base.LMP[bi] * deltaMW,
		}
		mod := n.Clone()
		mod.Loads = append(mod.Loads, model.Load{
			Bus: bi, P: deltaMW, Q: deltaMW * 0.2, InService: true,
		})
		sol, err := opf.SolveACOPF(mod, opf.Options{Start: base, Context: ctx})
		if err == nil && sol.Solved {
			imp.Solved = true
			imp.CostDelta = sol.ObjectiveCost - base.ObjectiveCost
			imp.CostPerMW = imp.CostDelta / deltaMW
			imp.MinVoltagePU = sol.MinVoltagePU
			imp.MaxLoadingPct = sol.MaxThermalLoading
		}
		out = append(out, imp)
	}
	return out, nil
}

// PriceRow is one bus's locational price.
type PriceRow struct {
	BusID int     `json:"bus_id"`
	LMP   float64 `json:"lmp_usd_per_mwh"`
}

// PriceMap returns per-bus LMPs sorted from most to least expensive — the
// congestion picture the agents narrate ("where is serving load costly").
func PriceMap(n *model.Network, base *opf.Solution) ([]PriceRow, error) {
	if base == nil || !base.Solved {
		return nil, ErrNoSolution
	}
	rows := make([]PriceRow, len(n.Buses))
	for i, b := range n.Buses {
		rows[i] = PriceRow{BusID: b.ID, LMP: base.LMP[i]}
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].LMP != rows[b].LMP {
			return rows[a].LMP > rows[b].LMP
		}
		return rows[a].BusID < rows[b].BusID
	})
	return rows, nil
}

// Consistency quantifies how well first-order LMP predictions match exact
// re-solves over the given impacts: the mean absolute relative error of
// predicted vs realized cost deltas (solved rows only).
func Consistency(impacts []Impact) (meanAbsRelErr float64, solved int) {
	var sum float64
	for _, im := range impacts {
		if !im.Solved || im.CostDelta == 0 {
			continue
		}
		rel := (im.LMPPredicted - im.CostDelta) / im.CostDelta
		if rel < 0 {
			rel = -rel
		}
		sum += rel
		solved++
	}
	if solved == 0 {
		return 0, 0
	}
	return sum / float64(solved), solved
}
