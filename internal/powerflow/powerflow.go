// Package powerflow implements steady-state AC and DC power flow solvers:
// full Newton-Raphson in polar coordinates (the default), a fast-decoupled
// (XB) variant used as the automatic recovery fallback, and a linear DC
// power flow used for screening.
//
// This package is the Go counterpart of pandapower's runpp, which the paper
// registers as the deterministic power-flow tool behind the contingency
// analysis agent. Mismatch tolerances follow the paper's validation rule:
// a solution is accepted when the maximum nodal power balance error is
// below Options.Tol in per-unit.
package powerflow

import (
	"errors"
	"fmt"
	"math"

	"gridmind/internal/model"
)

// Algorithm selects the power flow method.
type Algorithm int

const (
	// NewtonRaphson is the full AC Newton-Raphson solver (default).
	NewtonRaphson Algorithm = iota
	// FastDecoupled is the XB fast-decoupled AC solver, used by the agents
	// as the automatic fallback when Newton fails from a poor start.
	FastDecoupled
	// DC is the linearized active-power-only solver.
	DC
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case NewtonRaphson:
		return "newton-raphson"
	case FastDecoupled:
		return "fast-decoupled-xb"
	case DC:
		return "dc"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a power flow solve. The zero value is a usable
// default: Newton-Raphson, 1e-8 p.u. tolerance, 30 iterations, flat start.
type Options struct {
	Algorithm Algorithm
	// Tol is the convergence tolerance on the maximum nodal power
	// mismatch in p.u. Zero selects 1e-8.
	Tol float64
	// MaxIter bounds the work of each Q-limit round. For Newton-Raphson it
	// bounds the Jacobian factorizations; the chord steps between them,
	// which reuse a factor while the mismatch keeps falling fast, do not
	// count. For the fast-decoupled method it bounds iterations. Zero
	// selects 30 for NR and 60 for the fast-decoupled method.
	MaxIter int
	// FlatStart forces Vm=1 (or setpoints), Va=0 instead of the case's
	// stored voltage profile.
	FlatStart bool
	// Warm, when non-nil, supplies the starting voltage profile. It
	// overrides FlatStart; lengths must match the bus count.
	Warm *VoltageProfile
	// EnforceQLimits converts PV buses to PQ when their aggregate
	// reactive capability is exhausted and re-solves (outer loop).
	EnforceQLimits bool
	// Reorder, when non-nil, caches the Jacobian's fill-reducing column
	// ordering across solves of structurally similar networks (e.g. the
	// per-outage solves of a warm-started contingency sweep). Safe to
	// share between concurrent solves.
	Reorder *OrderingCache
}

// VoltageProfile is a bus voltage state (magnitude p.u., angle rad).
type VoltageProfile struct {
	Vm []float64 `json:"vm"`
	Va []float64 `json:"va"`
}

// Clone deep-copies the profile.
func (p *VoltageProfile) Clone() *VoltageProfile {
	return &VoltageProfile{
		Vm: append([]float64(nil), p.Vm...),
		Va: append([]float64(nil), p.Va...),
	}
}

// BranchFlow reports the power flow on one branch in physical units.
type BranchFlow struct {
	Branch int `json:"branch"`
	// FromP/FromQ and ToP/ToQ are the MW/MVAr entering the branch at each
	// terminal (positive into the branch).
	FromP, FromQ float64
	ToP, ToQ     float64
	// LoadingPct is max(|Sf|,|St|)/RateMVA·100; zero when the branch has
	// no rating.
	LoadingPct float64
}

// MVAFrom returns the apparent power at the from end in MVA.
func (f BranchFlow) MVAFrom() float64 { return math.Hypot(f.FromP, f.FromQ) }

// MVATo returns the apparent power at the to end in MVA.
func (f BranchFlow) MVATo() float64 { return math.Hypot(f.ToP, f.ToQ) }

// FillBranchFlows converts the batched per-end complex flows of
// Ybus.BranchFlowsInto (MVA, out-of-service branches zero) into BranchFlow
// records — P/Q at both ends plus the loading against the rating — and
// returns the total active-power loss. flows, sf and st all have length
// len(n.Branches). The per-branch arithmetic is the single copy every flow
// consumer (power-flow result assembly, ACOPF solution extraction) shares,
// so loading and loss cannot drift between them. It allocates nothing.
func FillBranchFlows(n *model.Network, flows []BranchFlow, sf, st []complex128) (lossP float64) {
	for k := range n.Branches {
		br := &n.Branches[k]
		f := BranchFlow{Branch: k}
		if br.InService {
			f.FromP, f.FromQ = real(sf[k]), imag(sf[k])
			f.ToP, f.ToQ = real(st[k]), imag(st[k])
			lossP += f.FromP + f.ToP
			if br.RateMVA > 0 {
				f.LoadingPct = 100 * math.Max(f.MVAFrom(), f.MVATo()) / br.RateMVA
			}
		}
		flows[k] = f
	}
	return lossP
}

// Result is a solved power flow.
type Result struct {
	Converged bool
	// Iterations counts the solver steps over all Q-limit rounds: for
	// Newton-Raphson the full Newton and the chord steps alike.
	Iterations int
	// Factorizations counts the LU numeric factorizations over all rounds:
	// for Newton-Raphson one per fresh Jacobian plus one per Repivot
	// fallback, for the fast-decoupled method B' and B'' once per round.
	Factorizations int
	// BaseFactorStarts counts the Newton rounds whose first step ran on a
	// ViewSolver's kept base factor with a Woodbury correction for the
	// outaged branches, in place of a factorization.
	BaseFactorStarts int
	MaxMismatch      float64 // p.u., at the returned state
	Algorithm        Algorithm
	Voltages         VoltageProfile
	// GenP and GenQ are the per-generator outputs in MW / MVAr after
	// slack pickup and reactive allocation.
	GenP, GenQ []float64
	// Flows has one entry per network branch (zero flows when out of
	// service).
	Flows []BranchFlow
	// LossP is total active losses in MW.
	LossP float64
	// MinVm/MaxVm are the voltage extrema over in-service buses.
	MinVm, MaxVm float64
}

// ErrNotConverged reports power flow divergence.
var ErrNotConverged = errors.New("powerflow: did not converge")

// classification holds the PV/PQ/slack split used by the AC solvers.
type classification struct {
	slack int
	pv    []int // PV bus indices
	pq    []int // PQ bus indices
	// pSpec/qSpec are specified net injections in p.u. (gen − load).
	pSpec, qSpec []float64
	// qMinBus/qMaxBus aggregate reactive capability per bus (p.u.).
	qMinBus, qMaxBus []float64
}

func classify(n *model.Network) (*classification, error) {
	nb := len(n.Buses)
	c := &classification{
		slack:   n.SlackBus(),
		pSpec:   make([]float64, nb),
		qSpec:   make([]float64, nb),
		qMinBus: make([]float64, nb),
		qMaxBus: make([]float64, nb),
	}
	if c.slack < 0 {
		return nil, errors.New("powerflow: network has no slack bus")
	}
	hasGen := make([]bool, nb)
	for _, g := range n.Gens {
		if !g.InService {
			continue
		}
		hasGen[g.Bus] = true
		c.pSpec[g.Bus] += g.P / n.BaseMVA
		c.qMinBus[g.Bus] += g.QMin / n.BaseMVA
		c.qMaxBus[g.Bus] += g.QMax / n.BaseMVA
	}
	for _, l := range n.Loads {
		if !l.InService {
			continue
		}
		c.pSpec[l.Bus] -= l.P / n.BaseMVA
		c.qSpec[l.Bus] -= l.Q / n.BaseMVA
	}
	for i, b := range n.Buses {
		if i == c.slack {
			continue
		}
		// A bus declared PV without an in-service generator is treated
		// as PQ: nothing can regulate its voltage.
		if b.Type == model.PV && hasGen[i] {
			c.pv = append(c.pv, i)
		} else {
			c.pq = append(c.pq, i)
		}
	}
	return c, nil
}

// startVoltages builds the initial profile according to options.
func startVoltages(n *model.Network, opts Options) (vm, va []float64) {
	nb := len(n.Buses)
	vm = make([]float64, nb)
	va = make([]float64, nb)
	startVoltagesInto(n, opts, vm, va)
	return vm, va
}

// startVoltagesInto is the allocation-free form of startVoltages, writing
// into caller-owned buffers.
func startVoltagesInto(n *model.Network, opts Options, vm, va []float64) {
	if opts.Warm != nil {
		copy(vm, opts.Warm.Vm)
		copy(va, opts.Warm.Va)
		return
	}
	for i, b := range n.Buses {
		if opts.FlatStart {
			vm[i], va[i] = 1, 0
		} else {
			vm[i], va[i] = b.Vm, b.Va
		}
	}
	// Generator voltage setpoints override at regulated buses.
	for _, g := range n.Gens {
		if g.InService && g.VSetpoint > 0 {
			if n.Buses[g.Bus].Type == model.PV || n.Buses[g.Bus].Type == model.Slack {
				vm[g.Bus] = g.VSetpoint
			}
		}
	}
}

// Solve runs the configured power flow on the network.
func Solve(n *model.Network, opts Options) (*Result, error) {
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	switch opts.Algorithm {
	case NewtonRaphson:
		if opts.MaxIter == 0 {
			opts.MaxIter = 30
		}
		return solveACOuter(n, opts, newtonInner)
	case FastDecoupled:
		if opts.MaxIter == 0 {
			opts.MaxIter = 60
		}
		return solveACOuter(n, opts, fdpfInner)
	case DC:
		return solveDC(n)
	default:
		return nil, fmt.Errorf("powerflow: unknown algorithm %v", opts.Algorithm)
	}
}

// innerSolver iterates one AC method to convergence for a fixed PV/PQ split.
type innerSolver func(n *model.Network, y *model.Ybus, c *classification, vm, va []float64, opts Options) (iter, facts int, maxMis float64, converged bool, err error)

// solveACOuter wraps an inner AC solver with the PV→PQ reactive-limit
// outer loop and final result assembly.
func solveACOuter(n *model.Network, opts Options, inner innerSolver) (*Result, error) {
	c, err := classify(n)
	if err != nil {
		return nil, err
	}
	y := model.BuildYbus(n)
	vm, va := startVoltages(n, opts)

	res := &Result{Algorithm: opts.Algorithm}
	var qScratch *qSwitchScratch
	const maxQRounds = 6
	for round := 0; ; round++ {
		iter, facts, mis, conv, err := inner(n, y, c, vm, va, opts)
		res.Iterations += iter
		res.Factorizations += facts
		res.MaxMismatch = mis
		res.Converged = conv
		if err != nil {
			return res, err
		}
		if !conv {
			finishResult(n, y, c, vm, va, res)
			return res, fmt.Errorf("%w after %d iterations (max mismatch %.3e p.u., %v)",
				ErrNotConverged, res.Iterations, mis, opts.Algorithm)
		}
		if !opts.EnforceQLimits || round >= maxQRounds {
			break
		}
		if qScratch == nil {
			qScratch = newQSwitchScratch(len(n.Buses))
		}
		if !switchPVtoPQ(y, c, vm, va, qScratch) {
			break
		}
	}
	finishResult(n, y, c, vm, va, res)
	return res, nil
}

// qSwitchScratch holds the injection-evaluation buffers of switchPVtoPQ so
// repeated Q-limit rounds (and view-solver sweeps) allocate nothing.
type qSwitchScratch struct {
	p, q, cs, sn []float64
}

func newQSwitchScratch(nb int) *qSwitchScratch {
	return &qSwitchScratch{
		p:  make([]float64, nb),
		q:  make([]float64, nb),
		cs: make([]float64, nb),
		sn: make([]float64, nb),
	}
}

// switchPVtoPQ checks reactive outputs at PV buses against aggregate
// capability; violated buses become PQ pinned at the limit. Reports
// whether any switch happened.
func switchPVtoPQ(y *model.Ybus, c *classification, vm, va []float64, sc *qSwitchScratch) bool {
	injectionsInto(y, vm, va, sc.cs, sc.sn, sc.p, sc.q)
	switched := false
	kept := c.pv[:0]
	for _, i := range c.pv {
		qInj := sc.q[i]           // net injection needed at solution
		qGen := qInj - c.qSpec[i] // generator share (qSpec holds −load)
		switch {
		case qGen > c.qMaxBus[i]+1e-9:
			c.qSpec[i] += c.qMaxBus[i]
			c.pq = append(c.pq, i)
			switched = true
		case qGen < c.qMinBus[i]-1e-9:
			c.qSpec[i] += c.qMinBus[i]
			c.pq = append(c.pq, i)
			switched = true
		default:
			kept = append(kept, i)
		}
	}
	c.pv = kept
	return switched
}

// resultScratch caches the per-network state finishResult needs — bus→
// generator indices, effective dispatches, aggregate bus loads, and complex
// work vectors — so repeated result assembly (one per outage in a sweep)
// neither rescans the generator list per bus nor allocates the
// intermediates. configureView/configureBase repoint the generator side at
// an OutageView's effective fleet, which is how the gen-outage fast path
// assembles results without materializing a network.
type resultScratch struct {
	v, s         []complex128
	gensAt       [][]int
	loadP, loadQ []float64
	// sf/st are the batched branch-flow kernel's per-end scratch and flows
	// the BranchFlow buffer result assembly fills in place. A sweep worker
	// reuses one scratch across its outages, so Result.Flows ALIASES this
	// buffer: each solve on the same scratch overwrites the previous
	// result's flows. Sweep scoring consumes flows before the next solve;
	// one-shot solves build a fresh scratch per call, so their results keep
	// unique ownership.
	sf, st []complex128
	flows  []BranchFlow
	// genP is the effective per-generator dispatch in MW: base setpoints,
	// or the view's redispatch overrides after configureView.
	genP []float64
	// loadScaled records that loadP/loadQ currently hold a view's scaled
	// demand and must be re-accumulated before the next nominal solve.
	loadScaled bool
}

// newResultScratch precomputes the cache for n. The aggregation order
// matches GensAtBus/BusLoad exactly, so cached and uncached assembly are
// value-identical.
func newResultScratch(n *model.Network) *resultScratch {
	nb := len(n.Buses)
	nbr := len(n.Branches)
	sc := &resultScratch{
		v:      make([]complex128, nb),
		s:      make([]complex128, nb),
		gensAt: make([][]int, nb),
		loadP:  make([]float64, nb),
		loadQ:  make([]float64, nb),
		genP:   make([]float64, len(n.Gens)),
		sf:     make([]complex128, nbr),
		st:     make([]complex128, nbr),
		flows:  make([]BranchFlow, nbr),
	}
	sc.configureBase(n)
	for _, l := range n.Loads {
		if l.InService {
			sc.loadP[l.Bus] += l.P
			sc.loadQ[l.Bus] += l.Q
		}
	}
	return sc
}

// configure rebuilds the scratch's generator tables from an effective
// fleet: gensAt keeps only units reported in service, genP records their
// dispatch. The single accumulation loop serves the base fleet and view
// overlays alike, so the aggregation rule cannot drift between them.
// Views only remove generators, so the per-bus slices shrink within their
// existing capacity.
func (sc *resultScratch) configure(n *model.Network, inService func(int) bool, genP func(int) float64) {
	for b := range sc.gensAt {
		sc.gensAt[b] = sc.gensAt[b][:0]
	}
	for gi, g := range n.Gens {
		sc.genP[gi] = genP(gi)
		if inService(gi) {
			sc.gensAt[g.Bus] = append(sc.gensAt[g.Bus], gi)
		}
	}
}

// configureView repoints the scratch at the view's effective fleet —
// status mask applied, dispatch overrides carried — and at its effective
// demand when the view scales loads.
func (sc *resultScratch) configureView(n *model.Network, view *model.OutageView) {
	sc.configure(n, view.GenInService, func(gi int) float64 { return view.Gen(gi).P })
	sc.applyLoadScale(n, view.LoadScale())
}

// configureBase resets the scratch to the base network's fleet and
// nominal demand, undoing a configureView.
func (sc *resultScratch) configureBase(n *model.Network) {
	sc.configure(n,
		func(gi int) bool { return n.Gens[gi].InService },
		func(gi int) float64 { return n.Gens[gi].P })
	sc.applyLoadScale(n, 1)
}

// applyLoadScale re-accumulates the per-bus load aggregation under a
// uniform demand multiplier, in the same visit order and with the same
// per-load arithmetic as a scratch built fresh over a materialized scaled
// network — so view and clone result assembly read identical demand. The
// common ls == 1 case over an unscaled scratch is a no-op.
func (sc *resultScratch) applyLoadScale(n *model.Network, ls float64) {
	if ls == 1 && !sc.loadScaled {
		return
	}
	for b := range sc.loadP {
		sc.loadP[b], sc.loadQ[b] = 0, 0
	}
	for _, l := range n.Loads {
		if l.InService {
			sc.loadP[l.Bus] += l.P * ls
			sc.loadQ[l.Bus] += l.Q * ls
		}
	}
	sc.loadScaled = ls != 1
}

// finishResult computes flows, losses, generator allocations and extrema.
// One-shot solves build the scratch fresh; sweeps pass a reused one.
func finishResult(n *model.Network, y *model.Ybus, c *classification, vm, va []float64, res *Result) {
	finishResultScratch(n, y, c, vm, va, res, newResultScratch(n))
}

// finishResultScratch is finishResult against a caller-provided scratch.
func finishResultScratch(n *model.Network, y *model.Ybus, c *classification, vm, va []float64, res *Result, sc *resultScratch) {
	nb := len(n.Buses)
	res.Voltages = VoltageProfile{Vm: append([]float64(nil), vm...), Va: append([]float64(nil), va...)}
	v, s := sc.v, sc.s
	model.VoltageVectorInto(v, vm, va)
	y.InjectionsInto(s, v)

	// Batched flow tail: one kernel pass over all branches into the
	// scratch's buffers. The result borrows the scratch's flows slice —
	// fresh per call for one-shot solves, reused per worker in sweeps (see
	// resultScratch for the aliasing contract).
	y.BranchFlowsInto(n, v, sc.sf, sc.st)
	res.Flows = sc.flows
	res.LossP = FillBranchFlows(n, sc.flows, sc.sf, sc.st)

	// Allocate generator outputs: P from setpoints except slack picks up
	// the residual; Q distributed over each bus's units in proportion to
	// their reactive range.
	res.GenP = make([]float64, len(n.Gens))
	res.GenQ = make([]float64, len(n.Gens))
	for i := 0; i < nb; i++ {
		gens := sc.gensAt[i]
		if len(gens) == 0 {
			continue
		}
		loadP, loadQ := sc.loadP[i], sc.loadQ[i]
		busGenP := real(s[i])*n.BaseMVA + loadP
		busGenQ := imag(s[i])*n.BaseMVA + loadQ
		if i != c.slack {
			// Keep dispatched P; numerical residue goes nowhere.
			busGenP = 0
			for _, g := range gens {
				busGenP += sc.genP[g]
			}
		}
		var pCap, qRange float64
		for _, g := range gens {
			pCap += math.Max(n.Gens[g].PMax, 1e-9)
			qRange += math.Max(n.Gens[g].QMax-n.Gens[g].QMin, 1e-9)
		}
		for _, g := range gens {
			gen := n.Gens[g]
			res.GenP[g] = busGenP * math.Max(gen.PMax, 1e-9) / pCap
			share := math.Max(gen.QMax-gen.QMin, 1e-9) / qRange
			res.GenQ[g] = busGenQ * share
		}
	}

	res.MinVm, res.MaxVm = math.Inf(1), math.Inf(-1)
	for i := range n.Buses {
		if vm[i] < res.MinVm {
			res.MinVm = vm[i]
		}
		if vm[i] > res.MaxVm {
			res.MaxVm = vm[i]
		}
	}
}

// Mismatch returns the per-bus complex power mismatch (specified − injected)
// in p.u. for an arbitrary voltage profile. Exposed for validation layers.
func Mismatch(n *model.Network, prof *VoltageProfile) []complex128 {
	y := model.BuildYbus(n)
	c, err := classify(n)
	if err != nil {
		return nil
	}
	v := model.VoltageVector(prof.Vm, prof.Va)
	s := y.Injections(v)
	out := make([]complex128, len(n.Buses))
	for i := range n.Buses {
		out[i] = complex(c.pSpec[i], c.qSpec[i]) - s[i]
	}
	return out
}

// angleWrap keeps angles in (-π, π] for stable warm starts, in constant
// time: ±Inf and NaN come back as NaN at once, so a diverging iterate
// fails the mismatch test instead of spinning. Within one wrap of the
// range the result equals a ∓ 2π exactly (that subtraction is exact by
// Sterbenz's lemma, and so is the IEEE remainder).
func angleWrap(a float64) float64 {
	if a > math.Pi || a <= -math.Pi {
		if a = math.Remainder(a, 2*math.Pi); a == -math.Pi {
			a = math.Pi
		}
	}
	return a
}
