package contingency

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// N-2 contingency screening: the connection-impact-assessment workflow of
// seeding candidate double outages from the N-1 critical list, ranking
// them with a linear (LODF-composition) pre-screen, and AC-verifying the
// survivors on the zero-clone view path. See README.md for the pipeline.

// N2Pair identifies one candidate double outage: two branches, or a
// branch plus a generator (a mixed pair).
type N2Pair struct {
	// BranchA is the first outaged branch (always set).
	BranchA int `json:"branch_a"`
	// BranchB is the second outaged branch, −1 for mixed pairs.
	BranchB int `json:"branch_b"`
	// Gen is the outaged generator of a mixed pair, −1 for branch pairs.
	Gen int `json:"gen"`
}

// N2Options configures AnalyzeN2. The embedded Options fields keep their
// N-1 meanings (workers, thresholds, cache, the test-only ReferenceClone
// flag); DCScreen is implied — use NoPreScreen to disable it.
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
	// NoPreScreen sends every candidate straight to AC verification —
	// the brute-force mode the differential and conservatism tests
	// compare against.
	NoPreScreen bool
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

// newPairResult prepares the identity fields of a pair record.
func newPairResult(n *model.Network, p N2Pair) *OutageResult {
	br := n.Branches[p.BranchA]
	out := &OutageResult{
		Branch:    p.BranchA,
		FromBusID: n.Buses[br.From].ID,
		ToBusID:   n.Buses[br.To].ID,
		IsXfmr:    br.IsTransformer,
		IsPair:    true,
		Branch2:   p.BranchB,
		Gen2:      p.Gen,
	}
	if p.BranchB >= 0 {
		b2 := n.Branches[p.BranchB]
		out.From2BusID = n.Buses[b2.From].ID
		out.To2BusID = n.Buses[b2.To].ID
	}
	if p.Gen >= 0 {
		out.Gen2BusID = n.Buses[n.Gens[p.Gen].Bus].ID
	}
	return out
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

// validatePairs rejects malformed caller-supplied candidates: out-of-range
// or out-of-service elements, degenerate pairs, three-element entries, and
// generators whose loss has no steady state.
func validatePairs(n *model.Network, pairs []N2Pair) error {
	var probe *model.OutageView
	for _, p := range pairs {
		if p.BranchA < 0 || p.BranchA >= len(n.Branches) || !n.Branches[p.BranchA].InService {
			return fmt.Errorf("contingency: N-2 pair references branch %d (out of range or out of service)", p.BranchA)
		}
		switch {
		case p.BranchB >= 0 && p.Gen >= 0:
			return fmt.Errorf("contingency: N-2 pair (%d) carries both a second branch and a generator", p.BranchA)
		case p.BranchB < 0 && p.Gen < 0:
			return fmt.Errorf("contingency: N-2 pair (%d) has no second element", p.BranchA)
		case p.BranchB >= 0:
			if p.BranchB >= len(n.Branches) || !n.Branches[p.BranchB].InService {
				return fmt.Errorf("contingency: N-2 pair references branch %d (out of range or out of service)", p.BranchB)
			}
			if p.BranchB == p.BranchA {
				return fmt.Errorf("contingency: N-2 pair lists branch %d twice", p.BranchA)
			}
		default:
			if probe == nil {
				probe = model.NewOutageView(n)
			}
			probe.Reset()
			if _, _, err := prepareGenOutage(n, probe, p.Gen); err != nil {
				return fmt.Errorf("contingency: N-2 pair (branch %d, gen %d): %w", p.BranchA, p.Gen, err)
			}
		}
	}
	return nil
}

// AnalyzeN2 runs the N-2 screening pipeline: pair seeding from the N-1
// sweep n1 (unless opts.Pairs is given), the LODF-composition DC
// pre-screen that certifies comfortably secure pairs without an AC solve,
// and zero-clone AC verification of every surviving pair through the
// shared ViewSolver worker pool. The returned ResultSet contains one pair
// record per candidate (IsPair set) and feeds the same ranking, summary
// and recommendation layers as the N-1 sweep.
func AnalyzeN2(n *model.Network, base *powerflow.Result, n1 *ResultSet, opts N2Options) (*ResultSet, error) {
	opts.fill()
	if base == nil || !base.Converged {
		return nil, ErrNoBase
	}
	pairs := opts.Pairs
	if pairs == nil {
		if n1 == nil {
			return nil, fmt.Errorf("contingency: AnalyzeN2 needs an N-1 sweep to seed pairs from (or explicit Pairs)")
		}
		pairs = SeedN2Pairs(n, n1, opts)
	} else if err := validatePairs(n, pairs); err != nil {
		// Seeded pairs are valid by construction; caller-supplied sets are
		// rejected up front so no pair silently degrades to a different
		// contingency downstream.
		return nil, err
	}
	rs := &ResultSet{
		CaseName:         n.Name,
		BaseMinVoltagePU: base.MinVm,
	}
	for _, f := range base.Flows {
		if f.LoadingPct > rs.BaseMaxLoadingPct {
			rs.BaseMaxLoadingPct = f.LoadingPct
		}
	}
	if len(pairs) == 0 {
		return rs, nil
	}
	if opts.Reorder == nil {
		opts.Reorder = powerflow.NewOrderingCache()
	}

	// DC pre-screen state (shared read-only by all workers; the LODF memo
	// inside serializes per column on first touch only).
	var screen *pairScreener
	if !opts.NoPreScreen {
		var err error
		if screen, err = newPairScreener(n, base, opts.Options); err != nil {
			screen = nil // screening is an optimization; verify everything
		}
	}

	results := make([]OutageResult, len(pairs))
	var screened int64
	var next int64
	baseY := opts.BaseYbus
	topo := opts.Topology
	var prepOnce sync.Once
	prep := func() {
		if baseY == nil {
			baseY = model.BuildYbus(n)
		}
		if topo == nil {
			topo = model.NewTopology(n)
		}
	}
	workers := opts.Workers
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ctx *sweepContext
			defer func() { opts.Pool.release(ctx) }()
			for {
				idx := int(atomic.AddInt64(&next, 1) - 1)
				if idx >= len(pairs) {
					return
				}
				p := pairs[idx]
				if opts.Cache != nil {
					if hit, ok := opts.Cache.Get(PairKey(opts.CacheKeyPrefix, n.Name, p)); ok {
						results[idx] = *hit
						continue
					}
				}
				if screen != nil {
					if r, ok := screen.trySecurePair(n, p, opts.Options); ok {
						results[idx] = *r
						atomic.AddInt64(&screened, 1)
						if opts.Cache != nil {
							opts.Cache.Put(PairKey(opts.CacheKeyPrefix, n.Name, p), r)
						}
						continue
					}
				}
				var r *OutageResult
				if opts.ReferenceClone {
					r = analyzePairClone(n, base, p, opts.Options)
				} else {
					if ctx == nil {
						prepOnce.Do(prep)
						ctx = opts.Pool.acquire(n, base, topo, baseY)
					}
					r = ctx.analyzePair(p, opts.Options)
				}
				results[idx] = *r
				if opts.Cache != nil {
					opts.Cache.Put(PairKey(opts.CacheKeyPrefix, n.Name, p), r)
				}
			}
		}()
	}
	wg.Wait()
	rs.Outages = results
	rs.Screened = int(screened)
	recordSweep(opts.Metrics, "n2", len(results), int(screened))
	return rs, nil
}

// analyzePairClone is the brute-force deep-clone reference for a double
// outage, structured like analyzeOneClone: clone, mark both elements out
// (with governor redispatch for mixed pairs), islanding check, warm
// Newton with fast-decoupled fallback. The N-2 differential harness pins
// the zero-clone pair path against it.
func analyzePairClone(n *model.Network, base *powerflow.Result, p N2Pair, opts Options) *OutageResult {
	out := newPairResult(n, p)
	post := n.Clone()
	post.Branches[p.BranchA].InService = false
	if p.BranchB >= 0 {
		post.Branches[p.BranchB].InService = false
	}
	var deficit float64
	if p.Gen >= 0 {
		view := model.NewOutageView(n)
		var err error
		if _, deficit, err = prepareGenOutage(n, view, p.Gen); err != nil {
			// Unreachable (AnalyzeN2 validates); mirror analyzePair's
			// defensive branch-only behavior under the pair identity.
			deficit = 0
		} else {
			post.Gens[p.Gen].InService = false
			for gi := range post.Gens {
				if post.Gens[gi].InService {
					post.Gens[gi].P = view.Gen(gi).P
				}
			}
		}
	}

	comp, count := post.ConnectedComponents()
	if count > 1 {
		out.Islanded = true
		slackComp := comp[post.SlackBus()]
		for _, l := range post.Loads {
			if l.InService && comp[l.Bus] != slackComp {
				out.LoadShedMW += l.P
			}
		}
		out.Severity = severity(out, opts)
		return out
	}

	pfOpts := powerflow.Options{EnforceQLimits: true, Reorder: opts.Reorder}
	if !opts.NoWarmStart {
		pfOpts.Warm = base.Voltages.Clone()
	}
	res, err := powerflow.Solve(post, pfOpts)
	if err != nil || !res.Converged {
		res, err = powerflow.Solve(post, powerflow.Options{Algorithm: powerflow.FastDecoupled})
	}
	if err != nil || !res.Converged {
		out.Converged = false
		out.LoadShedMW = estimateLoadShed(post)
		out.Severity = severity(out, opts) + deficit
		return out
	}
	scoreOutage(out, res, post, p.BranchA, p.BranchB, opts)
	out.Severity += deficit
	return out
}
