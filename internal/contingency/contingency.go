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
}

// Describe renders the one-line audit narrative for the outage.
func (o *OutageResult) Describe() string {
	kind := "line"
	if o.IsXfmr {
		kind = "transformer"
	}
	if o.IsPair {
		second := fmt.Sprintf("line %d-%d", o.From2BusID, o.To2BusID)
		if o.Branch2 < 0 {
			second = fmt.Sprintf("unit at bus %d", o.Gen2BusID)
		}
		switch {
		case o.Islanded:
			return fmt.Sprintf("double outage %s %d-%d + %s islands the system, shedding %.1f MW",
				kind, o.FromBusID, o.ToBusID, second, o.LoadShedMW)
		case !o.Converged:
			return fmt.Sprintf("double outage %s %d-%d + %s: power flow collapse, est. %.1f MW shed to restore solvability",
				kind, o.FromBusID, o.ToBusID, second, o.LoadShedMW)
		case len(o.Overloads) > 0:
			return fmt.Sprintf("double outage %s %d-%d + %s causes %d overload(s), worst %.0f%%, min voltage %.3f p.u.",
				kind, o.FromBusID, o.ToBusID, second, len(o.Overloads), o.MaxLoadingPct, o.MinVoltagePU)
		default:
			return fmt.Sprintf("double outage %s %d-%d + %s is secure (max loading %.0f%%, min voltage %.3f p.u.)",
				kind, o.FromBusID, o.ToBusID, second, o.MaxLoadingPct, o.MinVoltagePU)
		}
	}
	switch {
	case o.Islanded:
		return fmt.Sprintf("%s %d-%d outage islands the system, shedding %.1f MW",
			kind, o.FromBusID, o.ToBusID, o.LoadShedMW)
	case !o.Converged:
		return fmt.Sprintf("%s %d-%d outage: power flow collapse, est. %.1f MW shed to restore solvability",
			kind, o.FromBusID, o.ToBusID, o.LoadShedMW)
	case len(o.Overloads) > 0:
		return fmt.Sprintf("%s %d-%d outage causes %d overload(s), worst %.0f%%, min voltage %.3f p.u.",
			kind, o.FromBusID, o.ToBusID, len(o.Overloads), o.MaxLoadingPct, o.MinVoltagePU)
	default:
		return fmt.Sprintf("%s %d-%d outage is secure (max loading %.0f%%, min voltage %.3f p.u.)",
			kind, o.FromBusID, o.ToBusID, o.MaxLoadingPct, o.MinVoltagePU)
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
}

// Options configures a sweep. The zero value analyzes all in-service
// branches with NumCPU workers, warm-started Newton power flows and the
// paper's 0.94 p.u. voltage threshold.
type Options struct {
	// Workers bounds sweep parallelism; 0 selects GOMAXPROCS.
	Workers int
	// Branches restricts the outage set; nil means every in-service
	// branch.
	Branches []int
	// VoltLow/VoltHigh are violation thresholds; zero selects 0.94/1.06
	// (the paper's §3.2.3 thresholds).
	VoltLow, VoltHigh float64
	// OverloadPct is the loading threshold counted as an overload; zero
	// selects 100.
	OverloadPct float64
	// NoWarmStart disables warm starting from the base solution (the A4
	// ablation).
	NoWarmStart bool
	// DCScreen enables linear (LODF) pre-screening: outages whose
	// predicted worst loading stays below ScreenThreshold are classified
	// secure without a full AC solve — the classic two-stage contingency
	// screening of production tools.
	DCScreen bool
	// ScreenThreshold is the predicted-loading percentage below which a
	// screened outage is accepted as secure; zero selects 85 (a
	// conservative margin under the 100% violation threshold).
	ScreenThreshold float64
	// Cache, when non-nil, is consulted with Key before any solve and
	// populated afterwards.
	Cache *Cache
	// CacheKeyPrefix disambiguates network states in the cache; callers
	// pass the session's case + diff hash (§3.4 composite key).
	CacheKeyPrefix string
	// ReferenceClone selects the legacy clone-per-outage analysis path
	// instead of the zero-clone OutageView + patched-Ybus fast path. It is
	// a test-only flag: the differential harness pins the fast path to the
	// reference implementation with it. Production callers leave it false.
	ReferenceClone bool

	// BaseYbus, when non-nil, is the base admittance matrix of n, shared
	// read-only (workers value-copy it before patching). It MUST match n's
	// structure and branch parameters; the engine keys it by structural
	// signature. Nil builds one per call, as before.
	BaseYbus *model.Ybus
	// Topology, when non-nil, is the prebuilt adjacency of n for the
	// allocation-free islanding checks. Same matching contract as BaseYbus.
	Topology *model.Topology
	// PTDF, when non-nil, is the distribution-factor matrix of n used by
	// DC screening, shared across calls (its LODF memo is concurrency-
	// safe). Nil builds one per screened sweep, as before.
	PTDF *ptdf.Matrix
	// Pool, when non-nil, recycles worker solve contexts (compiled Newton
	// pattern + LU symbolic analysis) across calls. Callers must key pools
	// by network state (case + diff hash): a context is reused only for
	// the exact (network, base) pair it was built from. See SweepPool.
	Pool *SweepPool
	// Reorder shares the Jacobian fill-reducing ordering across the
	// per-outage Newton solves: every outage network has the same bus set
	// as the base, so the ordering is computed once per sweep (or once per
	// structure, when the engine provides it) instead of once per outage.
	// Nil makes Analyze create a sweep-local cache.
	Reorder *powerflow.OrderingCache
	// Metrics, when non-nil, receives sweep-level counters (sweeps run,
	// outages analyzed, DC-screen certificates) — recorded in bulk after
	// the worker pool drains, never on the per-outage hot path.
	Metrics *obs.Registry
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.VoltLow == 0 {
		o.VoltLow = 0.94
	}
	if o.VoltHigh == 0 {
		o.VoltHigh = 1.06
	}
	if o.OverloadPct == 0 {
		o.OverloadPct = 100
	}
	if o.ScreenThreshold == 0 {
		o.ScreenThreshold = 85
	}
}

// ErrNoBase reports a missing or unconverged base-case solution.
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
// kind labels the sweep family: n1, n2, gen.
func recordSweep(met *obs.Registry, kind string, outages, screened int) {
	if met == nil {
		return
	}
	met.Counter("gridmind_contingency_sweeps_total", "Contingency sweeps completed, by kind.", "kind", kind).Inc()
	met.Counter("gridmind_contingency_outages_total", "Outages evaluated across sweeps, by kind.", "kind", kind).Add(int64(outages))
	met.Counter("gridmind_contingency_screened_total", "Outages certified secure by the DC screen (no AC solve), by kind.", "kind", kind).Add(int64(screened))
}

// AnalyzeOne simulates the outage of branch k and scores it. Like Analyze,
// it takes the prebuilt topology, base Ybus and a recyclable solve context
// from Options when the engine provides them — a single-outage tool query
// then pays for the solve only, not a topology + Ybus + pattern rebuild.
// Bare calls (no shared artifacts) build what they need, as before. With
// opts.ReferenceClone it runs the legacy clone-based path instead (the
// differential-test reference).
func AnalyzeOne(n *model.Network, base *powerflow.Result, k int, opts Options) *OutageResult {
	opts.fill()
	if opts.ReferenceClone {
		return analyzeClone(n, base, branchOutage(k), opts)
	}
	topo := opts.Topology
	if topo == nil {
		topo = model.NewTopology(n)
	}
	ctx := opts.Pool.acquire(n, base, topo, opts.BaseYbus)
	defer opts.Pool.release(ctx)
	return ctx.analyze(branchOutage(k), opts)
}

// scoreOutage fills out's post-solve fields — loading extrema, overload
// and voltage-violation lists, severity — from a converged power flow.
// Branch, pair and generator outages, on the view and clone paths alike,
// share it, so the scoring rules cannot silently diverge between them. n
// supplies bus IDs and branch endpoints; k and k2 are the outaged branches
// (zero flow by construction, skipped), −1 when absent.
func scoreOutage(out *OutageResult, res *powerflow.Result, n *model.Network, k, k2 int, opts Options) {
	out.Converged = true
	out.Algorithm = res.Algorithm.String()
	out.MinVoltagePU = res.MinVm
	for bk, f := range res.Flows {
		if bk == k || bk == k2 {
			continue // the outaged branches carry nothing
		}
		if f.LoadingPct > out.MaxLoadingPct {
			out.MaxLoadingPct = f.LoadingPct
		}
		if f.LoadingPct > opts.OverloadPct {
			bb := n.Branches[bk]
			out.Overloads = append(out.Overloads, BranchLoading{
				Branch:     bk,
				FromBusID:  n.Buses[bb.From].ID,
				ToBusID:    n.Buses[bb.To].ID,
				LoadingPct: f.LoadingPct,
			})
		}
	}
	sort.Slice(out.Overloads, func(a, b int) bool {
		return out.Overloads[a].LoadingPct > out.Overloads[b].LoadingPct
	})
	for i := range n.Buses {
		vm := res.Voltages.Vm[i]
		if vm < opts.VoltLow {
			out.VoltViols = append(out.VoltViols, VoltageViolation{
				BusID: n.Buses[i].ID, VmPU: vm, Limit: opts.VoltLow, Low: true,
			})
		} else if vm > opts.VoltHigh {
			out.VoltViols = append(out.VoltViols, VoltageViolation{
				BusID: n.Buses[i].ID, VmPU: vm, Limit: opts.VoltHigh, Low: false,
			})
		}
	}
	out.Severity = severity(out, opts)
}

// severity computes the composite criticality score the CA agent ranks
// by, mirroring §3.2.3: clustered thermal overloads, voltage excursion
// depth, and load shedding all contribute.
func severity(o *OutageResult, opts Options) float64 {
	s := 0.0
	for _, ov := range o.Overloads {
		// Each overload contributes its excess percentage, capped so the
		// score counts overload *clusters* (the paper's 110-115% cluster
		// criterion) rather than letting one extreme loading dominate —
		// that distinction is exactly what separates the composite
		// ranking from the thermal-first style in Table 1.
		excess := ov.LoadingPct - opts.OverloadPct
		if excess > 25 {
			excess = 25
		}
		s += excess
	}
	for _, vv := range o.VoltViols {
		s += 100 * math.Abs(vv.VmPU-vv.Limit) // 0.01 p.u. == 1 point
	}
	s += o.LoadShedMW // 1 MW shed == 1 point
	if !o.Converged && !o.Islanded {
		s += 50 // collapse without a clean island estimate is severe
	}
	return s
}

// EstimateLoadShed estimates the demand (MW) that must be shed to restore
// power flow solvability on an unsolvable post-outage network — the same
// bisection the sweeps use for collapse records, exported so the cascade
// engine's collapse accounting shares one rule with the N-1/N-2 paths.
func EstimateLoadShed(post *model.Network) float64 { return estimateLoadShed(post) }

// estimateLoadShed bisects a uniform load scaling until the post-outage
// power flow solves, returning the shed demand in MW. This approximates
// the "involuntary load shedding" the paper's CA evaluates.
//
// One trial network is prepared up front (sharing the untouched bus and
// branch slices with post — solvers never mutate case data) and rescaled
// in place from post each trial; previously every bisection step deep-
// cloned the already-cloned outage network.
func estimateLoadShed(post *model.Network) float64 {
	loadP, _ := post.TotalLoad()
	trial := &model.Network{
		Name:     post.Name,
		BaseMVA:  post.BaseMVA,
		Buses:    post.Buses,
		Branches: post.Branches,
		Loads:    make([]model.Load, len(post.Loads)),
		Gens:     make([]model.Generator, len(post.Gens)),
	}
	lo, hi := 0.0, 1.0 // feasible scale in [lo, hi): lo solvable fraction
	for iter := 0; iter < 5; iter++ {
		mid := (lo + hi) / 2
		scaleDemand(trial, post, mid)
		res, err := powerflow.Solve(trial, powerflow.Options{FlatStart: true})
		if err == nil && res.Converged {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (1 - lo) * loadP
}

// scaleDemand writes post's loads and generator dispatches scaled by f
// into trial's preallocated slices, allocation-free.
func scaleDemand(trial, post *model.Network, f float64) {
	for i, l := range post.Loads {
		l.P *= f
		l.Q *= f
		trial.Loads[i] = l
	}
	for i, g := range post.Gens {
		g.P *= f
		trial.Gens[i] = g
	}
}
