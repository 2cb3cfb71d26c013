package opf

import (
	"fmt"

	"gridmind/internal/model"
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
// refinement steps against the unshifted matrix after the corrector's
// solve (resolve), the direction the IPM steps along. Under
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
// fixed, value-independent order: the primal block M through p.hess
// (whose emission contract is structural — every entry on every call,
// zeros included), then the equality Jacobian border with a
// structurally-present diagonal. Duplicate coordinates accumulate.
// Pattern capture at compile time and per-iteration numeric refill both
// walk through this single function, so the slot mapping cannot drift
// between the two.
func assembleKKT(p *nlp, ev *nlpEval, x, lam, mu, z []float64, sink *kktSink) {
	nx := p.nx
	p.hess(x, lam, mu, z, sink)
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
// It is a concrete type, not a func value, so the refill emissions (7,975
// per iteration on case118) are direct calls.
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

// gauss emits the Gauss term (μ_r/z_r)·∇h_r∇h_rᵀ of every row r of
// rows, entry by entry: the whole contribution of a linear inequality
// row to the primal block. rows, mu and z are aligned.
func (s *kktSink) gauss(rows [][]jentry, mu, z []float64) {
	for r, row := range rows {
		w := mu[r] / z[r]
		for _, a := range row {
			for _, b := range row {
				s.emit(a.col, b.col, w*a.val*b.val)
			}
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
	// one a Context carried over from an earlier solve (Context.problem
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
//
// The deduplication buckets the captured emissions by column, as
// sparse.CompilePattern lays out its columns, and numbers each column's
// distinct rows with a per-row stamp: linear in the emissions, with no
// hash map.
func (k *kktSystem) compile(p *nlp, ev *nlpEval, x, lam, mu, z []float64) error {
	dim := p.nx + p.ng
	var emits []kktEmit
	var vals []float64
	assembleKKT(p, ev, x, lam, mu, z, &kktSink{fn: func(i, j int, v float64) {
		emits = append(emits, kktEmit{i: int32(i), j: int32(j)})
		vals = append(vals, v)
	}})
	start := make([]int, dim+1)
	for _, e := range emits {
		start[e.j+1]++
	}
	for j := 0; j < dim; j++ {
		start[j+1] += start[j]
	}
	byCol := make([]int32, len(emits)) // emission numbers, column by column
	next := append([]int(nil), start[:dim]...)
	for n, e := range emits {
		byCol[next[e.j]] = int32(n)
		next[e.j]++
	}
	ri, ci := make([]int, 0, len(emits)), make([]int, 0, len(emits))
	uniq := make([]int32, len(emits)) // per emission, the index of its coordinate in ri/ci
	stamp := make([]int, dim)         // per row, 1 + the last column it was numbered in
	coord := make([]int32, dim)       // per row, its coordinate index in that column
	for j := 0; j < dim; j++ {
		for _, n := range byCol[start[j]:start[j+1]] {
			i := emits[n].i
			if stamp[i] != j+1 {
				stamp[i], coord[i] = j+1, int32(len(ri))
				ri = append(ri, int(i))
				ci = append(ci, j)
			}
			uniq[n] = coord[i]
		}
	}
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
	for e, u := range uniq {
		s := slot[u]
		emits[e].slot = int32(s)
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

// solve is the predictor's step: compile the pattern on first use, refill
// the values in place on every later iteration, then factorAndSolve.
// Drift against a pattern cached from an EARLIER solve means a structural
// change slipped past the compile key, so the pattern is recompiled for
// this problem; drift against a pattern compiled in THIS solve is a
// value-dependent emitter, a contract violation that fails loudly
// (reported distinctly from singularity).
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

// factorAndSolve runs one numeric LDLᵀ factorization of the shifted
// current matrix and solves rhs on it into k.sol, unrefined: the
// predictor's direction only sets the centring and the second-order term,
// which the shift's O(kktShift) error does not move (the refinement step
// there changes no iteration count on case14–300, AC or DC), so the
// refinement is left to the corrector's resolve. It allocates nothing.
func (k *kktSystem) factorAndSolve(rhs []float64) ([]float64, error) {
	if err := k.ldl.Factor(k.mat); err != nil {
		return nil, err
	}
	k.factors++
	if err := k.ldl.SolveInto(k.sol, rhs, k.work); err != nil {
		return nil, err
	}
	return k.sol, nil
}

// resolve solves against rhs on the factor the last solve left — the
// IPM's corrector — with no refill and no factorization, then runs
// kktRefineSteps steps of iterative refinement against the unshifted
// matrix, which take the shift back out of the direction. It allocates
// nothing, and overwrites the direction the last solve returned.
func (k *kktSystem) resolve(rhs []float64) ([]float64, error) {
	sol, res := k.sol, k.res
	if err := k.ldl.SolveInto(sol, rhs, k.work); err != nil {
		return nil, fmt.Errorf("singular KKT system: %w", err)
	}
	for range kktRefineSteps {
		k.mat.MulVecInto(res, sol)
		for i, b := range rhs {
			res[i] = b - res[i]
		}
		if err := k.ldl.SolveInto(res, res, k.work); err != nil {
			return nil, fmt.Errorf("singular KKT system: %w", err)
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

// Context carries a compiled ACOPF problem across solves: the problem
// itself (Ybus, neighbour lists, units, rated branches, slack, bound rows)
// with a by-value record of the network fields it was compiled from
// (compileKey), and its KKT pattern, fill-reducing ordering, LDLᵀ
// symbolic analysis and evaluation scratch. Pass it via Options.Context
// when re-solving the SAME network structure with different loads, costs,
// unit limits, voltage bands, rating values or start points — what-ifs,
// SCOPF tightening/backoff rounds, sensitivity impact re-solves — and a
// re-solve compiles nothing: it points the problem at the new network,
// rewrites the bound values, re-checks Validate's value half and goes
// straight to slot-map refill + numeric factorization.
//
// The compile key is the one validity check: any change to a recorded
// field — base, a bus's ID, type or shunt, a branch's endpoints, R, X, B,
// tap, shift, status or whether it is rated, a unit's bus or status —
// rebuilds the problem and gives it a fresh KKT system and scratch.
//
// A Context is NOT safe for concurrent use; give each goroutine its own.
type Context struct {
	// prob is the compiled problem of the last network whose compile
	// succeeded, key the record of the fields it was compiled from.
	prob  *acopf
	key   compileKey
	kkt   *kktSystem
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

// problem returns n's compiled ACOPF problem and the KKT system to solve
// it on. When n's compile key matches the cached problem's, the problem is
// reused: pointed at n, its bound values rewritten and n's values
// validated, with no Ybus build and no layout. Otherwise n is compiled
// afresh onto a fresh KKT system and evaluation scratch; keep records its
// key for the next solve, which a throwaway Context skips.
func (c *Context) problem(n *model.Network, keep bool) (*acopf, *kktSystem, error) {
	if c.prob != nil && c.key.matches(n) {
		if err := n.ValidateValues(); err != nil {
			return nil, nil, err
		}
		c.prob.net = n
		c.prob.fillBounds()
		c.kkt.compiledThisSolve = false
		return c.prob, c.kkt, nil
	}
	prob, err := newACOPF(n)
	if err != nil {
		return nil, nil, err
	}
	if c.kkt != nil {
		c.prior += c.kkt.compiles
		c.readFactors -= c.kkt.factors
	}
	c.kkt = &kktSystem{}
	prob.es = newEvalScratch(prob)
	if keep {
		c.prob = prob
		c.key.capture(n)
	}
	return prob, c.kkt, nil
}
