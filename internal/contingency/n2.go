package contingency

import (
	"fmt"
	"sort"

	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// N-2 contingency screening: the connection-impact-assessment workflow of
// seeding candidate double outages from the N-1 critical list and
// AC-verifying every one on the zero-clone view path. See README.md for
// the pipeline.

// N2Pair identifies one candidate double outage: two branches, or a
// branch plus a generator (a mixed pair). Internally the sweep pipeline
// also carries single branch outages as N2Pairs with BranchB = Gen = −1.
type N2Pair struct {
	// BranchA is the first outaged branch (always set).
	BranchA int `json:"branch_a"`
	// BranchB is the second outaged branch, −1 for mixed pairs.
	BranchB int `json:"branch_b"`
	// Gen is the outaged generator of a mixed pair, −1 for branch pairs.
	Gen int `json:"gen"`
}

// N2Options configures AnalyzeN2. The embedded Options fields keep their
// N-1 meanings (workers, cache, shared artifacts), except DCScreen: the
// N-2 sweep never screens, so it is ignored.
type N2Options struct {
	Options

	// TopK bounds the N-1 critical list the pair generator seeds from:
	// the K most severe N-1 outages under the composite ranking. Zero
	// selects 10.
	TopK int
	// MaxPairs caps the candidate set after seeding (0 = no cap). The cap
	// keeps the pairs whose seed outages rank worst, so tightening it
	// drops the least-threatening candidates first.
	MaxPairs int
	// GenSeeds adds mixed branch+generator pairs: every listed generator
	// is paired with each of the top-K branches. Unanalyzable units (out
	// of service, the only slack machine) are filtered out.
	GenSeeds []int
	// Pairs supplies an explicit candidate set, bypassing the seeding
	// stage (the N-2 analogue of Options.Branches).
	Pairs []N2Pair
}

func (o *N2Options) fill() {
	o.Options.fill()
	if o.TopK == 0 {
		o.TopK = 10
	}
}

// PairKey builds the composite cache key for a double outage, in the same
// keyspace as Key but never colliding with a single-outage entry.
func PairKey(prefix, caseName string, p N2Pair) string {
	if p.Gen >= 0 {
		return fmt.Sprintf("%s|%s|br%d+g%d", prefix, caseName, p.BranchA, p.Gen)
	}
	return fmt.Sprintf("%s|%s|br%d+br%d", prefix, caseName, p.BranchA, p.BranchB)
}

// SeedN2Pairs generates the candidate double outages from a completed N-1
// sweep, the CIA-paper seeding rule: all pairs among the top-K most severe
// N-1 outages (composite ranking), plus all pairs among the branches whose
// single outage islands the system or causes an overload — the flagged
// set, which may extend beyond the top K. Mixed pairs (GenSeeds × top-K
// branches) ride along when requested. The result is deterministic:
// ordered by descending combined N-1 severity with index tie-breaks.
func SeedN2Pairs(n *model.Network, n1 *ResultSet, opts N2Options) []N2Pair {
	opts.fill()
	sev := make(map[int]float64, len(n1.Outages))
	inService := make(map[int]bool, len(n1.Outages))
	for i := range n1.Outages {
		o := &n1.Outages[i]
		sev[o.Branch] = o.Severity
		inService[o.Branch] = true
	}

	ranked := n1.Rank(Composite)
	var top []int
	for _, idx := range ranked {
		if len(top) >= opts.TopK {
			break
		}
		top = append(top, n1.Outages[idx].Branch)
	}
	var flagged []int
	for i := range n1.Outages {
		o := &n1.Outages[i]
		if o.Islanded || len(o.Overloads) > 0 {
			flagged = append(flagged, o.Branch)
		}
	}

	type key struct{ a, b int }
	seen := make(map[key]bool)
	var pairs []N2Pair
	addPairs := func(set []int) {
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				a, b := set[i], set[j]
				if a > b {
					a, b = b, a
				}
				if a == b || seen[key{a, b}] || !inService[a] || !inService[b] {
					continue
				}
				seen[key{a, b}] = true
				pairs = append(pairs, N2Pair{BranchA: a, BranchB: b, Gen: -1})
			}
		}
	}
	addPairs(top)
	addPairs(flagged)

	genSeen := make(map[int]bool, len(opts.GenSeeds))
	var probe *model.OutageView
	for _, g := range opts.GenSeeds {
		if g < 0 || g >= len(n.Gens) || !n.Gens[g].InService || genSeen[g] {
			continue
		}
		genSeen[g] = true
		// Reject units whose loss has no steady state (the only slack
		// machine), mirroring AnalyzeGenOutage's validation.
		if probe == nil {
			probe = model.NewOutageView(n)
		}
		probe.Reset()
		if _, _, err := prepareGenOutage(n, probe, g); err != nil {
			continue
		}
		for _, b := range top {
			if inService[b] {
				pairs = append(pairs, N2Pair{BranchA: b, BranchB: -1, Gen: g})
			}
		}
	}

	// Deterministic order: worst combined N-1 severity first. Mixed pairs
	// use the branch's severity alone (the gen's N-1 record lives in a
	// different result type).
	score := func(p N2Pair) float64 {
		s := sev[p.BranchA]
		if p.BranchB >= 0 {
			s += sev[p.BranchB]
		}
		return s
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		si, sj := score(pairs[i]), score(pairs[j])
		if si != sj {
			return si > sj
		}
		if pairs[i].BranchA != pairs[j].BranchA {
			return pairs[i].BranchA < pairs[j].BranchA
		}
		if pairs[i].BranchB != pairs[j].BranchB {
			return pairs[i].BranchB < pairs[j].BranchB
		}
		return pairs[i].Gen < pairs[j].Gen
	})
	if opts.MaxPairs > 0 && len(pairs) > opts.MaxPairs {
		pairs = pairs[:opts.MaxPairs]
	}
	return pairs
}

// AnalyzeN2 runs the N-2 screening pipeline: pair seeding from the N-1
// sweep n1 (unless opts.Pairs is given), then zero-clone AC verification
// of every pair — the N-1 sweep's own pipeline, run over pairs, with no
// DC screen. The returned ResultSet contains one pair record per
// candidate (IsPair set) and feeds the same ranking, summary and
// recommendation layers as the N-1 sweep. A malformed pair, including a
// one-element entry, fails the sweep with ErrInvalidOutage.
func AnalyzeN2(n *model.Network, base *powerflow.Result, n1 *ResultSet, opts N2Options) (*ResultSet, error) {
	opts.fill()
	pairs := opts.Pairs
	if pairs == nil {
		if n1 == nil {
			return nil, fmt.Errorf("contingency: AnalyzeN2 needs an N-1 sweep to seed pairs from (or explicit Pairs)")
		}
		pairs = SeedN2Pairs(n, n1, opts)
	}
	return sweep(n, base, pairs, "n2", false, opts.Options)
}
