// Package contingency implements N-1 ("T-1" in the paper) contingency
// analysis: for every in-service branch, simulate its outage, re-solve the
// power flow, and catalogue thermal overloads, voltage violations,
// islanding and estimated load shedding. Results feed the CA agent's
// critical-element ranking (§3.2.2–3.2.3).
package contingency

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"gridmind/internal/model"
	"gridmind/internal/obs"
	"gridmind/internal/powerflow"
	"gridmind/internal/ptdf"
)

// BranchLoading reports one overloaded branch after an outage.
type BranchLoading struct {
	Branch     int     `json:"branch"`
	FromBusID  int     `json:"from_bus"`
	ToBusID    int     `json:"to_bus"`
	LoadingPct float64 `json:"loading_pct"`
}

// VoltageViolation reports one out-of-band bus voltage after an outage.
type VoltageViolation struct {
	BusID int     `json:"bus"`
	VmPU  float64 `json:"vm_pu"`
	Limit float64 `json:"limit_pu"`
	Low   bool    `json:"low"`
}

// OutageResult is the paper's per-contingency record: every cited metric
// in a CA narrative maps to a field here. N-2 records produced by
// AnalyzeN2 reuse it — Branch identifies the first element and the IsPair
// block the second — so the ranking, summary and recommendation layers
// work on single and double outages alike.
type OutageResult struct {
	Branch    int  `json:"branch"`
	FromBusID int  `json:"from_bus"`
	ToBusID   int  `json:"to_bus"`
	IsXfmr    bool `json:"is_transformer"`
	Converged bool `json:"converged"`
	Islanded  bool `json:"islanded"`
	// IsPair marks an N-2 record; the fields below identify the second
	// outaged element and are meaningless otherwise. Branch2 is the second
	// branch (−1 for mixed branch+generator pairs, where Gen2/Gen2BusID
	// name the lost unit instead; Gen2 is −1 for pure branch pairs).
	IsPair     bool `json:"is_pair,omitempty"`
	Branch2    int  `json:"branch2,omitempty"`
	From2BusID int  `json:"from2_bus,omitempty"`
	To2BusID   int  `json:"to2_bus,omitempty"`
	Gen2       int  `json:"gen2,omitempty"`
	Gen2BusID  int  `json:"gen2_bus,omitempty"`
	// MaxLoadingPct is the worst post-contingency branch loading.
	MaxLoadingPct float64            `json:"max_loading_pct"`
	Overloads     []BranchLoading    `json:"overloads,omitempty"`
	MinVoltagePU  float64            `json:"min_voltage_pu"`
	VoltViols     []VoltageViolation `json:"voltage_violations,omitempty"`
	// LoadShedMW estimates demand that cannot be served (islanded load,
	// or the shed required to restore power flow solvability).
	LoadShedMW float64 `json:"load_shed_mw"`
	// Severity is the composite criticality score used for ranking.
	Severity float64 `json:"severity"`
	// Algorithm records which solver produced the post-outage point.
	Algorithm string `json:"algorithm"`
	// QLimitsRelaxed marks a post-outage point found only with the
	// generators' reactive limits relaxed (Worker.SolveOrFallback's second
	// solve): some units may exceed them.
	QLimitsRelaxed bool `json:"q_limits_relaxed,omitempty"`
}

// Describe renders the one-line audit narrative for the outage.
func (o *OutageResult) Describe() string {
	kind := "line"
	if o.IsXfmr {
		kind = "transformer"
	}
	what := fmt.Sprintf("%s %d-%d outage", kind, o.FromBusID, o.ToBusID)
	if o.IsPair {
		second := fmt.Sprintf("line %d-%d", o.From2BusID, o.To2BusID)
		if o.Branch2 < 0 {
			second = fmt.Sprintf("unit at bus %d", o.Gen2BusID)
		}
		what = fmt.Sprintf("double outage %s %d-%d + %s", kind, o.FromBusID, o.ToBusID, second)
	}
	switch {
	case o.Islanded:
		return fmt.Sprintf("%s islands the system, shedding %.1f MW", what, o.LoadShedMW)
	case !o.Converged:
		return fmt.Sprintf("%s: power flow collapse, est. %.1f MW shed to restore solvability", what, o.LoadShedMW)
	case len(o.Overloads) > 0:
		return fmt.Sprintf("%s causes %d overload(s), worst %.0f%%, min voltage %.3f p.u.",
			what, len(o.Overloads), o.MaxLoadingPct, o.MinVoltagePU)
	default:
		return fmt.Sprintf("%s is secure (max loading %.0f%%, min voltage %.3f p.u.)", what, o.MaxLoadingPct, o.MinVoltagePU)
	}
}

// ResultSet aggregates a full N-1 sweep.
type ResultSet struct {
	CaseName string         `json:"case_name"`
	Outages  []OutageResult `json:"outages"`
	// Screened counts branches skipped by DC screening (when enabled).
	Screened int `json:"screened"`
	// BaseMaxLoadingPct and BaseMinVoltagePU describe the pre-contingency
	// state for comparison.
	BaseMaxLoadingPct float64 `json:"base_max_loading_pct"`
	BaseMinVoltagePU  float64 `json:"base_min_voltage_pu"`

	// memo holds the rankings and the scored recommendations, each
	// computed on first use. A set does not change once its sweep has
	// returned it, so they stay true for its lifetime.
	memo rankMemo
}

// The paper's fixed violation thresholds (§3.2.3): a bus voltage outside
// [voltLow, voltHigh] p.u. or a branch loaded above overloadPct percent of
// its rating is a violation.
const (
	voltLow     = 0.94
	voltHigh    = 1.06
	overloadPct = 100.0
)

// screenThreshold is the DC screen's predicted-loading percentage below
// which a screened outage is accepted as secure: a conservative margin
// under the overloadPct violation threshold.
const screenThreshold = 85.0

// Options configures a sweep. The zero value analyzes all in-service
// branches with NumCPU workers, warm-started Newton power flows and the
// paper's 0.94/1.06 p.u. voltage and 100 % loading thresholds.
type Options struct {
	// Workers bounds sweep parallelism; 0 selects GOMAXPROCS.
	Workers int
	// Branches restricts the outage set; nil means every in-service
	// branch.
	Branches []int
	// NoWarmStart disables warm starting from the base solution (the A4
	// ablation).
	NoWarmStart bool
	// DCScreen enables linear (LODF) pre-screening: outages whose
	// predicted worst loading stays below screenThreshold (85 %) are
	// classified secure without a full AC solve — the classic two-stage
	// contingency screening of production tools. N-1 only: AnalyzeN2
	// ignores it.
	DCScreen bool
	// Cache, when non-nil, is consulted with Key before any solve and
	// populated afterwards.
	Cache *Cache
	// CacheKeyPrefix disambiguates network states in the cache; callers
	// pass the session's case + diff hash (§3.4 composite key).
	CacheKeyPrefix string

	// BaseYbus, Topology, PTDF and Reorder name the pool's outage base
	// artifacts; a non-nil one that is not the base's own pointer fails the
	// study with ErrArtifactMismatch. Each is a checked alias; delete with
	// the probe's wiring.
	BaseYbus *model.Ybus
	Topology *model.Topology          // checked alias; delete with the probe's wiring
	PTDF     *ptdf.Matrix             // checked alias; delete with the probe's wiring
	Reorder  *powerflow.OrderingCache // checked alias; delete with the probe's wiring
	// Pool is n's state's outage base and worker pool (see SweepPool);
	// callers key pools by state (case + diff hash). Nil runs the study on
	// a throwaway pool over NewBase(n).
	Pool *SweepPool
	// Metrics, when non-nil, receives sweep-level counters (sweeps run,
	// outages analyzed, DC-screen certificates) — recorded in bulk after
	// the worker pool drains, never on the per-outage hot path.
	Metrics *obs.Registry
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// ErrNoBase reports a missing or unconverged base-case solution, or a
// network without the slack bus any converged base of it would have.
var ErrNoBase = errors.New("contingency: base case power flow is required")

// Analyze runs the N-1 sweep. base must be a converged pre-contingency
// power flow of n (the CA agent solves it first, per the paper's
// solve_base_case tool). An explicit Options.Branches entry that is out of
// range or out of service fails the sweep with ErrInvalidOutage.
func Analyze(n *model.Network, base *powerflow.Result, opts Options) (*ResultSet, error) {
	branches := opts.Branches
	if branches == nil {
		branches = n.InServiceBranches()
	}
	outages := make([]N2Pair, len(branches))
	for i, k := range branches {
		outages[i] = branchOutage(k)
	}
	return sweep(n, base, outages, "n1", opts.DCScreen, opts)
}

// recordSweep publishes one sweep's bulk counters on met (no-op when nil).
// kind labels the sweep family: n1, n2, gen. work is the LU work of the
// outages the sweep solved on the AC path, failure escalations and
// load-shed trials included, published by recordWork.
func recordSweep(met *obs.Registry, kind string, outages, screened int, work SolveWork) {
	if met == nil {
		return
	}
	met.Counter("gridmind_contingency_sweeps_total", "Contingency sweeps completed, by kind.", "kind", kind).Inc()
	met.Counter("gridmind_contingency_outages_total", "Outages evaluated across sweeps, by kind.", "kind", kind).Add(int64(outages))
	met.Counter("gridmind_contingency_screened_total", "Outages certified secure by the DC screen (no AC solve), by kind.", "kind", kind).Add(int64(screened))
	recordWork(met, kind, work)
}

// recordWork publishes the LU work of AC-solved outages on met (no-op when
// nil) under kind: a sweep's (n1, n2, gen), or one outage's (n1_one,
// gen_one: AnalyzeOne and AnalyzeGenOutage, which count no sweep). The
// repivot and Q-relaxed series appear with their first count, as
// registering a series costs an allocation per sweep and sweeps seldom
// repivot or relax.
func recordWork(met *obs.Registry, kind string, work SolveWork) {
	if met == nil {
		return
	}
	met.Counter("gridmind_contingency_factorizations_total", "LU factorizations of AC-solved outages, by kind: the Q-limited Newton solve, its Q-relaxed retry and the load-shed trials.", "kind", kind).Add(int64(work.Factorizations))
	met.Counter("gridmind_contingency_base_factor_starts_total", "Newton solves of AC-solved outages that started on the base factor instead of a factorization, by kind.", "kind", kind).Add(int64(work.BaseStarts))
	if work.Repivots > 0 {
		met.Counter("gridmind_contingency_repivots_total", "LU refactorizations of AC-solved outages whose frozen pivots went stale and were re-pivoted, by kind; each is also a factorization.", "kind", kind).Add(int64(work.Repivots))
	}
	if work.QRelaxed > 0 {
		met.Counter("gridmind_contingency_q_relaxed_total", "Outages whose Q-limited solve failed and that solved with the Q limits relaxed (records labelled q_limits_relaxed), by kind.", "kind", kind).Add(int64(work.QRelaxed))
	}
}

// AnalyzeOne simulates the outage of branch k and scores it on a Worker
// of Options.Pool, through SweepPool.Run as one item, so with the engine's
// pool a single-outage tool query pays for the solve only, not a topology
// + Ybus + pattern rebuild, and its solve work is published under kind
// n1_one. base must be a converged power flow of n; a network without a
// slack bus fails with ErrNoBase, and an alias that is not the pool's
// artifact with ErrArtifactMismatch.
func AnalyzeOne(n *model.Network, base *powerflow.Result, k int, opts Options) (*OutageResult, error) {
	if _, err := opts.base(n); err != nil {
		return nil, err
	}
	var out *OutageResult
	work := opts.Pool.Run(n, 1, 1, nil, func(w *Worker, _ int) {
		out = w.analyze(base, branchOutage(k), opts)
	})
	recordWork(opts.Metrics, "n1_one", work)
	return out, nil
}

// scoreOutage fills out's post-solve fields — loading extrema, overload
// and voltage-violation lists, severity — from a converged power flow.
// Branch, pair and generator outages, on the view path and in the test
// reference alike, share it, so the scoring rules cannot silently diverge
// between them. n supplies bus IDs and branch endpoints; mask marks the
// outaged branches (zero flow by construction, skipped), nil when none.
func scoreOutage(out *OutageResult, res *powerflow.Result, n *model.Network, mask []bool) {
	out.Converged = true
	out.Algorithm = res.Algorithm.String()
	out.MinVoltagePU = res.MinVm
	out.MaxLoadingPct, out.Overloads, out.VoltViols = Violations(res, n, mask, overloadPct, voltLow, voltHigh)
	out.Severity = severity(out)
}

// Violations is the one limit check of a converged power flow, shared by
// the outage scorer here and the cascade's stage scorer: the worst loading
// over the surviving branches (mask[k] marks branch k out; a nil mask
// keeps every branch), their overloads above overloadPct sorted worst
// first, and every bus voltage outside [voltLow, voltHigh]. n supplies
// bus IDs and branch endpoints.
func Violations(res *powerflow.Result, n *model.Network, mask []bool, overloadPct, voltLow, voltHigh float64) (maxPct float64, overloads []BranchLoading, viols []VoltageViolation) {
	for bk, f := range res.Flows {
		if mask != nil && mask[bk] {
			continue // the outaged branches carry nothing
		}
		if f.LoadingPct > maxPct {
			maxPct = f.LoadingPct
		}
		if f.LoadingPct > overloadPct {
			bb := n.Branches[bk]
			overloads = append(overloads, BranchLoading{
				Branch:     bk,
				FromBusID:  n.Buses[bb.From].ID,
				ToBusID:    n.Buses[bb.To].ID,
				LoadingPct: f.LoadingPct,
			})
		}
	}
	sort.Slice(overloads, func(a, b int) bool {
		return overloads[a].LoadingPct > overloads[b].LoadingPct
	})
	for i := range n.Buses {
		vm := res.Voltages.Vm[i]
		if vm < voltLow {
			viols = append(viols, VoltageViolation{
				BusID: n.Buses[i].ID, VmPU: vm, Limit: voltLow, Low: true,
			})
		} else if vm > voltHigh {
			viols = append(viols, VoltageViolation{
				BusID: n.Buses[i].ID, VmPU: vm, Limit: voltHigh, Low: false,
			})
		}
	}
	return maxPct, overloads, viols
}

// severity computes the composite criticality score the CA agent ranks
// by, mirroring §3.2.3: clustered thermal overloads, voltage excursion
// depth, and load shedding all contribute.
func severity(o *OutageResult) float64 {
	s := AddViolationScore(0, o.Overloads, o.VoltViols, overloadPct)
	s += o.LoadShedMW // 1 MW shed == 1 point
	if !o.Converged && !o.Islanded {
		s += 50 // collapse without a clean island estimate is severe
	}
	return s
}

// AddViolationScore adds the limit-violation terms of the composite score
// to the running sum s: each overload's capped excess over overloadPct,
// then each voltage excursion. The outage severity and the cascade's
// per-stage sum share it, so both add the same terms in the same order.
func AddViolationScore(s float64, overloads []BranchLoading, viols []VoltageViolation, overloadPct float64) float64 {
	for _, ov := range overloads {
		// Each overload contributes its excess percentage, capped so the
		// score counts overload *clusters* (the paper's 110-115% cluster
		// criterion) rather than letting one extreme loading dominate —
		// that distinction is exactly what separates the composite
		// ranking from the thermal-first style in Table 1.
		s += min(ov.LoadingPct-overloadPct, 25)
	}
	for _, vv := range viols {
		s += 100 * math.Abs(vv.VmPU-vv.Limit) // 0.01 p.u. == 1 point
	}
	return s
}
