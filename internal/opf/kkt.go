package opf

import (
	"fmt"

	"gridmind/internal/sparse"
)

// This file is the fixed-pattern KKT machinery of the interior-point
// solver: the reduced KKT system's sparsity pattern is compiled once per
// problem, values are refilled in place through a slot map each iteration,
// and the symmetric saddle-point system
//
//	[ M   dgᵀ ]      M = ∇²L + dhᵀ·diag(μ/z)·dh
//	[ dg   0  ]
//
// is factored by a static-pivot sparse LDLᵀ (sparse.LDL) whose symbolic
// analysis — elimination tree and fill pattern on the fill-reducing order
// — is built once together with the pattern. Pivots stay on the diagonal
// in that order: a shift of +kktShift on the primal columns and −kktShift
// on the equality rows makes the matrix quasi-definite, and
// kktRefineSteps steps of iterative refinement against the unshifted
// matrix take the shift back out of the Newton direction.
//
// A kktSystem additionally survives ACROSS solves of the same network
// topology (see Context), so SCOPF tightening rounds, sensitivity
// re-solves and warm-started SolveACOPF calls skip pattern compilation and
// symbolic analysis entirely.

// kktShift is δ, the static regularisation of the KKT factor, added at
// the pivot only (the matrix keeps its values): +δ on the primal columns,
// −δ on the equality rows. kktRefineSteps is the number of iterative
// refinement steps against the unshifted matrix after each solve. Under
// costScale the shift alone no longer moves an IPM iteration count: AC and
// DC OPF on case14–300 take the same iterates with no refinement as with
// one. The step stays because without it the direction carries the shift,
// so it depends on the elimination order (case14 drifts 6e-9 between the
// block and the scalar minimum-degree order, over
// TestBlockOrderingMatchesMinDegree's 1e-9).
const (
	kktShift       = 1e-8
	kktRefineSteps = 1
)

// assembleKKT emits every entry of the reduced KKT matrix into sink in a
// fixed, value-independent order: the Lagrangian Hessian (via p.hess,
// whose emission contract is structural — every block on every call,
// zeros included), the Gauss terms dhᵀ·diag(μ/z)·dh of every inequality
// row, and the equality Jacobian border with a structurally-present
// diagonal. Duplicate coordinates accumulate. Pattern capture at compile
// time and per-iteration numeric refill both walk through this single
// function, so the slot mapping cannot drift between the two.
func assembleKKT(p *nlp, ev *nlpEval, x, lam, mu, z []float64, sink *kktSink) {
	nx := p.nx
	p.hess(x, lam, mu, sink)
	for r := 0; r < p.nh; r++ {
		w := mu[r] / z[r]
		row := ev.DH[r]
		for _, a := range row {
			for _, b := range row {
				sink.emit(a.col, b.col, w*a.val*b.val)
			}
		}
	}
	for i, row := range ev.DG {
		for _, a := range row {
			sink.emit(nx+i, a.col, a.val)
			sink.emit(a.col, nx+i, a.val)
		}
		// Keep the diagonal structurally present for robustness.
		sink.emit(nx+i, nx+i, 0)
	}
}

// kktSink receives the emissions of assembleKKT. With fn set it forwards
// every emission to fn — the pattern capture at compile time and the COO
// assemblies of the reference paths. With fn nil it is the compiled
// refill: the n-th emission must land on the coordinate the compile
// recorded for it and is accumulated into that coordinate's value slot.
// It is a concrete type, not a func value, so the tens of thousands of
// refill emissions per iteration are direct calls.
type kktSink struct {
	fn func(i, j int, v float64)
	// emits records, per emission in assembly order, its compiled
	// coordinate and the value slot it accumulates into.
	emits []kktEmit
	vals  []float64
	// n counts this pass's emissions; drift is the first one that missed
	// its compiled coordinate (−1 for none).
	n, drift int
}

// kktEmit is one compiled emission: coordinate (i, j) and its slot in the
// CSC value array.
type kktEmit struct{ i, j, slot int32 }

func (s *kktSink) emit(i, j int, v float64) {
	n := s.n
	s.n = n + 1
	if n < len(s.emits) {
		if e := s.emits[n]; int(e.i) == i && int(e.j) == j {
			s.vals[e.slot] += v
			return
		}
	}
	// Off the compiled path: a capture sink, which has no compiled
	// emissions, forwards to fn; a compiled sink records the first miss as
	// drift.
	if s.fn != nil {
		s.fn(i, j, v)
	} else if s.drift < 0 {
		s.drift = n
	}
}

// addBlock accumulates w·H over a 4-variable block, emitting every entry
// unconditionally (structural emission contract).
func (s *kktSink) addBlock(cols [4]int, h *[4][4]float64, w float64) {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s.emit(cols[r], cols[c], w*h[r][c])
		}
	}
}

// refill overwrites the matrix values in place through the slot map — no
// COO construction, no CSC compression, no pattern work: it zeroes the
// values and re-accumulates them from one assembly pass. Every emission is checked against the coordinates recorded at compile
// time — count AND position — so a drifting (value-dependent) emitter
// fails loudly instead of silently accumulating into the wrong slots.
func (s *kktSink) refill(p *nlp, ev *nlpEval, x, lam, mu, z []float64) error {
	clear(s.vals)
	s.n, s.drift = 0, -1
	assembleKKT(p, ev, x, lam, mu, z, s)
	if s.n != len(s.emits) {
		return fmt.Errorf("opf: KKT emission count drifted: %d entries, compiled pattern has %d", s.n, len(s.emits))
	}
	if s.drift >= 0 {
		e := s.emits[s.drift]
		return fmt.Errorf("opf: KKT emission %d drifted from compiled coordinate (%d,%d): the hess/eval pattern is not structural", s.drift, e.i, e.j)
	}
	return nil
}

// kktSystem holds the compiled KKT linear system: the CSC matrix with its
// fixed structural pattern, the refill sink with its emission→value-slot
// map, the fill-reducing order, the LDLᵀ factor whose symbolic analysis is
// built with the pattern, and the solve buffers. The zero value is ready
// to use; compile runs lazily on the first iteration.
type kktSystem struct {
	dim     int
	mat     *sparse.CSC
	sink    kktSink
	colPerm []int
	ldl     *sparse.LDL
	// sol, res and work are the solve buffers: the Newton direction, the
	// refinement residual and the factor's workspace.
	sol, res, work []float64
	// compiledThisSolve tells a pattern compiled in the current solve from
	// one a Context carried over from an earlier solve (Context.acquire
	// clears it); solve treats emission drift against the two differently.
	compiledThisSolve bool
	// counters for tests and telemetry: pattern compilations and numeric
	// factorizations
	compiles, factors int
}

func (k *kktSystem) compiled() bool { return k.mat != nil }

// compile records one structural emission of the full KKT assembly,
// deduplicates coordinates, compiles the CSC pattern plus the
// emission→slot map, orders it and runs the LDLᵀ symbolic analysis. The
// values captured along the way are accumulated into the matrix, so the
// compile iteration needs no separate refill pass.
func (k *kktSystem) compile(p *nlp, ev *nlpEval, x, lam, mu, z []float64) error {
	dim := p.nx + p.ng
	var ri, ci []int
	seen := make(map[int64]int)
	var uniq []int32 // per emission, the index of its coordinate in ri/ci
	var vals []float64
	assembleKKT(p, ev, x, lam, mu, z, &kktSink{fn: func(i, j int, v float64) {
		key := int64(i)*int64(dim) + int64(j)
		u, ok := seen[key]
		if !ok {
			u = len(ri)
			seen[key] = u
			ri = append(ri, i)
			ci = append(ci, j)
		}
		uniq = append(uniq, int32(u))
		vals = append(vals, v)
	}})
	mat, slot := sparse.CompilePattern(dim, dim, ri, ci)
	var colPerm []int
	if p.order != nil {
		colPerm = p.order(mat)
	} else {
		colPerm = sparse.MinDegree(mat)
	}
	shift := make([]float64, dim)
	for j := range shift {
		shift[j] = kktShift
		if j >= p.nx {
			shift[j] = -kktShift
		}
	}
	ldl, err := sparse.NewLDL(mat, colPerm, shift)
	if err != nil {
		return fmt.Errorf("opf: KKT symbolic analysis: %w", err)
	}
	k.dim = dim
	k.mat = mat
	val := mat.Values() // zeroed by CompilePattern
	emits := make([]kktEmit, len(uniq))
	for e, u := range uniq {
		s := slot[u]
		emits[e] = kktEmit{i: int32(ri[u]), j: int32(ci[u]), slot: int32(s)}
		val[s] += vals[e]
	}
	k.sink = kktSink{emits: emits, vals: val}
	k.colPerm = colPerm
	k.ldl = ldl
	k.sol = make([]float64, dim)
	k.res = make([]float64, dim)
	k.work = make([]float64, dim)
	k.compiles++
	k.compiledThisSolve = true
	return nil
}

// solve is the fixed-pattern Newton-direction step: compile the pattern on
// first use, refill the values in place on every later iteration, then
// factor and solve. Drift against a pattern cached from an EARLIER solve
// means a structural change slipped past the signature, so the pattern is
// recompiled for this problem; drift against a pattern compiled in THIS
// solve is a value-dependent emitter, a contract violation that fails
// loudly (reported distinctly from singularity).
func (k *kktSystem) solve(p *nlp, ev *nlpEval, x, lam, mu, z, rhs []float64) ([]float64, error) {
	if k.compiled() {
		if err := k.sink.refill(p, ev, x, lam, mu, z); err != nil {
			if k.compiledThisSolve {
				return nil, err
			}
			k.mat = nil
		}
	}
	if !k.compiled() {
		// compile captures the pattern AND accumulates the values, so the
		// compile iteration needs no refill pass.
		if err := k.compile(p, ev, x, lam, mu, z); err != nil {
			return nil, err
		}
	}
	sol, err := k.factorAndSolve(rhs)
	if err != nil {
		return nil, fmt.Errorf("singular KKT system: %w", err)
	}
	return sol, nil
}

// factorAndSolve solves the current matrix against rhs into k.sol: one
// numeric LDLᵀ factorization of the shifted matrix, a solve, then
// kktRefineSteps steps of iterative refinement against the unshifted
// matrix. It allocates nothing.
func (k *kktSystem) factorAndSolve(rhs []float64) ([]float64, error) {
	if err := k.ldl.Factor(k.mat); err != nil {
		return nil, err
	}
	k.factors++
	sol, res := k.sol, k.res
	if err := k.ldl.SolveInto(sol, rhs, k.work); err != nil {
		return nil, err
	}
	for range kktRefineSteps {
		k.mat.MulVecInto(res, sol)
		for i, b := range rhs {
			res[i] = b - res[i]
		}
		if err := k.ldl.SolveInto(res, res, k.work); err != nil {
			return nil, err
		}
		for i, d := range res {
			sol[i] += d
		}
	}
	return sol, nil
}

// kktOrder is acopf's constraint-aware KKT column pre-order: quotient-graph
// minimum degree (sparse.BlockMinDegree) on a condensed pattern built from
// what the problem knows about its own block structure. Each bus
// contributes ONE 4-wide supernode holding its (Va, Vm) unknowns together
// with its (P, Q) balance rows — the four columns couple to exactly the
// same set of neighbor buses (through incident branches) and generators,
// so the condensed graph is simply the bus adjacency graph plus generator
// singletons and the slack-angle pin. Keeping a bus's variables and its
// balance-row border entries adjacent in the pivot order lets elimination
// consume each bus's whole 4×4 saddle block at once instead of revisiting
// the bus twice (once per half). Under the LDLᵀ factor its fill is
// within 1.2× of scalar minimum degree on the full pattern (1.05× on
// case118, 0.96× on case300, at unit μ/z on the converged pattern) at the
// same IPM iteration counts, and a cold solve measured 3-13% faster than
// under scalar minimum degree on case14-case300 (one run each, ordering
// time included).
//
// Two designs that sound plausible measure WORSE, so don't resurrect them
// without re-profiling: eliminating the equality border strictly last
// (every balance supernode after every variable) inflates fill 10-50%
// — the deferred rows' quotient cliques grow monotonically while every
// variable is eliminated under them; and separating (Va,Vm) pairs from (P,Q) pairs as
// distinct supernodes doubles the condensed graph for no benefit since
// the two halves of a bus have identical adjacency.
//
// The condensed graph has nb + 2·|gens| + 1 nodes versus ~4.7·nb columns,
// so the ordering is also cheaper to compute than plain MinDegree.
func (a *acopf) kktOrder(m *sparse.CSC) []int {
	nb, ngen, nx := a.nb, len(a.gens), a.nx()
	super := make([][]int, 0, nb+2*ngen+1)
	for b := 0; b < nb; b++ {
		super = append(super, []int{a.ixVa(b), a.ixVm(b), nx + b, nx + nb + b})
	}
	for g := 0; g < ngen; g++ {
		super = append(super, []int{a.ixPg(g)}, []int{a.ixQg(g)})
	}
	super = append(super, []int{nx + 2*nb})
	return sparse.BlockMinDegree(m, super)
}

// kktSig captures the structural identity of an acopf problem: everything
// the KKT pattern depends on and nothing it does not. Two problems with
// equal signatures share the exact same pattern, so rating tightenings,
// load changes and warm starts all hit the cache; a branch/generator
// status or topology change misses it.
type kktSig struct {
	nb, slack, nx, ng, nh int
	gens                  []int
	// genBus is the bus of each entry of gens: moving a generator changes
	// which equality rows carry its Pg/Qg border entries without changing
	// any count, so it must be part of the structural identity. Captured
	// by value — the network can mutate between solves.
	genBus []int
	rated  []int
	// ratedBus is the (From, To) pair of each rated branch: re-homing a
	// parallel branch between already-connected bus pairs changes which
	// variables its flow-constraint rows touch without changing the Ybus
	// NZ set or any count, so the endpoints are structural too. Captured
	// by value — the network can mutate between solves.
	ratedBus [][2]int
	nz       [][2]int
}

func (a *acopf) signature() *kktSig {
	genBus := make([]int, len(a.gens))
	for p, gi := range a.gens {
		genBus[p] = a.net.Gens[gi].Bus
	}
	ratedBus := make([][2]int, len(a.rated))
	for p, k := range a.rated {
		br := a.net.Branches[k]
		ratedBus[p] = [2]int{br.From, br.To}
	}
	return &kktSig{
		nb: a.nb, slack: a.slack,
		nx: a.nx(), ng: a.ngEq(), nh: a.nIneq(),
		gens: a.gens, genBus: genBus,
		rated: a.rated, ratedBus: ratedBus, nz: a.y.NZ,
	}
}

func sigMatch(s, t *kktSig) bool {
	if s == nil || t == nil {
		return false
	}
	if s.nb != t.nb || s.slack != t.slack || s.nx != t.nx || s.ng != t.ng || s.nh != t.nh {
		return false
	}
	if len(s.gens) != len(t.gens) || len(s.rated) != len(t.rated) || len(s.nz) != len(t.nz) {
		return false
	}
	for i := range s.gens {
		if s.gens[i] != t.gens[i] || s.genBus[i] != t.genBus[i] {
			return false
		}
	}
	for i := range s.rated {
		if s.rated[i] != t.rated[i] || s.ratedBus[i] != t.ratedBus[i] {
			return false
		}
	}
	for i := range s.nz {
		if s.nz[i] != t.nz[i] {
			return false
		}
	}
	return true
}

// Context carries the compiled KKT pattern, fill-reducing ordering and
// LDLᵀ symbolic analysis of an ACOPF problem across solves. Pass it via
// Options.Context when re-solving the SAME network topology with different
// ratings, loads or start points — SCOPF tightening/backoff rounds,
// sensitivity impact re-solves, warm-started comparative studies — and the
// re-solves skip pattern compilation entirely, going straight to slot-map
// refill + numeric factorization. A topology or generator-status change is
// detected by structural signature and recompiles transparently.
//
// A Context is NOT safe for concurrent use; give each goroutine its own.
type Context struct {
	sig   *kktSig
	kkt   *kktSystem
	es    *evalScratch
	prior int // compile count of replaced systems
	// readFactors is the current system's factorization count at the last
	// TakeFactorizations. A replacement system starts it at minus the
	// replaced one's unread count, so a structural change loses none.
	readFactors int
}

// NewContext returns an empty reusable solver context.
func NewContext() *Context { return &Context{} }

// Compiles reports how many KKT pattern compilations have run through this
// context. A warm re-solve on unchanged topology does not add one.
func (c *Context) Compiles() int {
	n := c.prior
	if c.kkt != nil {
		n += c.kkt.compiles
	}
	return n
}

// TakeFactorizations reports the numeric KKT factorizations — one per
// interior-point step — run through this context since the previous call.
func (c *Context) TakeFactorizations() int {
	if c.kkt == nil {
		return 0
	}
	n := c.kkt.factors - c.readFactors
	c.readFactors = c.kkt.factors
	return n
}

// acquire returns the cached KKT system when prob structurally matches the
// context's previous problem, or installs a fresh empty one for it. The
// cached evalScratch rides the same signature: a structural match hands
// prob the previous problem's row layout (values are recomputed on every
// eval), a miss lays out a fresh one.
func (c *Context) acquire(prob *acopf) *kktSystem {
	sig := prob.signature()
	if c.kkt != nil && sigMatch(c.sig, sig) {
		c.kkt.compiledThisSolve = false
		c.sig = sig
		if c.es == nil {
			c.es = newEvalScratch(prob)
		}
		prob.es = c.es
		return c.kkt
	}
	if c.kkt != nil {
		c.prior += c.kkt.compiles
		c.readFactors -= c.kkt.factors
	}
	c.sig = sig
	c.kkt = &kktSystem{}
	c.es = newEvalScratch(prob)
	prob.es = c.es
	return c.kkt
}
