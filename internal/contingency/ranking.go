package contingency

import (
	"slices"
	"sort"
	"sync"
)

// Strategy selects how contingencies are ranked. The paper observes that
// different LLMs arrive at slightly different critical sets (Table 1:
// GPT-5 Mini diverges from the pack); the strategies below are the two
// analysis styles the simulated models use.
type Strategy int

const (
	// Composite ranks by the full severity score: clustered overloads,
	// voltage excursions and load shedding (§3.2.3). This is the default
	// analysis style.
	Composite Strategy = iota
	// ThermalFirst ranks purely by worst post-contingency loading with
	// overload count as the tie breaker, surfacing single extreme
	// overloads that the composite score can rank lower. This is the
	// divergent style that reproduces Table 1's GPT-5 Mini row.
	ThermalFirst
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Composite:
		return "composite"
	case ThermalFirst:
		return "thermal-first"
	default:
		return "unknown"
	}
}

// rankMemo is a ResultSet's memo: one order per ranking (every strategy
// but ThermalFirst sorts as Composite) and Recommend's candidates, each
// built once behind its sync.Once and read-only afterwards.
type rankMemo struct {
	orderOnce [2]sync.Once
	order     [2][]int
	candsOnce sync.Once
	cands     []candidate
}

// Rank returns outage indices (positions in rs.Outages) from most to
// least critical under the strategy. Ties break deterministically by
// branch index so every model profile reports reproducible rankings. The
// order is sorted once per set and strategy; each call returns a copy.
func (rs *ResultSet) Rank(strategy Strategy) []int {
	return slices.Clone(rs.order(strategy))
}

// order is the memoized ranking; callers must not modify it.
func (rs *ResultSet) order(strategy Strategy) []int {
	if strategy != ThermalFirst {
		strategy = Composite
	}
	m := &rs.memo
	m.orderOnce[strategy].Do(func() { m.order[strategy] = rankOutages(rs.Outages, strategy) })
	return m.order[strategy]
}

func rankOutages(outages []OutageResult, strategy Strategy) []int {
	idx := make([]int, len(outages))
	for i := range idx {
		idx[i] = i
	}
	less := func(a, b *OutageResult) bool {
		switch strategy {
		case ThermalFirst:
			if a.MaxLoadingPct != b.MaxLoadingPct {
				return a.MaxLoadingPct > b.MaxLoadingPct
			}
			if len(a.Overloads) != len(b.Overloads) {
				return len(a.Overloads) > len(b.Overloads)
			}
			if a.Severity != b.Severity {
				return a.Severity > b.Severity
			}
		default:
			if a.Severity != b.Severity {
				return a.Severity > b.Severity
			}
			if a.MaxLoadingPct != b.MaxLoadingPct {
				return a.MaxLoadingPct > b.MaxLoadingPct
			}
		}
		if a.Branch != b.Branch {
			return a.Branch < b.Branch
		}
		// N-2 sets need the second element for determinism (every N-1
		// record carries equal zero values here).
		if a.Branch2 != b.Branch2 {
			return a.Branch2 < b.Branch2
		}
		return a.Gen2 < b.Gen2
	}
	sort.Slice(idx, func(i, j int) bool {
		return less(&outages[idx[i]], &outages[idx[j]])
	})
	return idx
}

// Top returns the k most critical outages under the strategy.
func (rs *ResultSet) Top(k int, strategy Strategy) []OutageResult {
	idx := rs.order(strategy)
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]OutageResult, k)
	for i := 0; i < k; i++ {
		out[i] = rs.Outages[idx[i]]
	}
	return out
}

// CriticalBranches returns the branch indices of the top-k outages — the
// "Critical Lines (idx)" column of the paper's Table 1.
func (rs *ResultSet) CriticalBranches(k int, strategy Strategy) []int {
	top := rs.Top(k, strategy)
	out := make([]int, len(top))
	for i, o := range top {
		out[i] = o.Branch
	}
	return out
}

// MaxOverloadPct returns the worst loading across the top-k outages —
// the "Max Overload %" column of Table 1.
func (rs *ResultSet) MaxOverloadPct(k int, strategy Strategy) float64 {
	var mx float64
	for _, o := range rs.Top(k, strategy) {
		if o.MaxLoadingPct > mx {
			mx = o.MaxLoadingPct
		}
	}
	return mx
}

// Stats summarizes a sweep for status reports.
type Stats struct {
	Total        int `json:"total"`
	Secure       int `json:"secure"`
	WithOverload int `json:"with_overload"`
	WithVoltViol int `json:"with_voltage_violation"`
	Islanding    int `json:"islanding"`
	Unsolved     int `json:"unsolved"`
}

// Summarize tallies sweep outcomes.
func (rs *ResultSet) Summarize() Stats {
	var s Stats
	s.Total = len(rs.Outages)
	for i := range rs.Outages {
		o := &rs.Outages[i]
		switch {
		case o.Islanded:
			s.Islanding++
		case !o.Converged:
			s.Unsolved++
		case len(o.Overloads) > 0:
			s.WithOverload++
		default:
			s.Secure++
		}
		if len(o.VoltViols) > 0 {
			s.WithVoltViol++
		}
	}
	return s
}
