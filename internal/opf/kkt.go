package opf

import (
	"fmt"

	"gridmind/internal/sparse"
)

// This file is the fixed-pattern KKT machinery of the interior-point
// solver: the reduced KKT system's sparsity pattern is compiled once per
// problem, values are refilled in place through a slot map each iteration,
// and the LU symbolic analysis is reused via Refactorize — the same recipe
// powerflow/newton.go applies to the power-flow Jacobian, ported to the
// saddle-point system
//
//	[ M   dgᵀ ]      M = ∇²L + dhᵀ·diag(μ/z)·dh
//	[ dg   0  ]
//
// A kktSystem additionally survives ACROSS solves of the same network
// topology (see Context), so SCOPF tightening rounds, sensitivity
// re-solves and warm-started SolveACOPF calls skip pattern compilation and
// symbolic analysis entirely.

// assembleKKT emits every entry of the reduced KKT matrix in a fixed,
// value-independent order: the Lagrangian Hessian (via p.hess, whose
// emission contract is structural — every block on every call, zeros
// included), the Gauss terms dhᵀ·diag(μ/z)·dh of every inequality row, and
// the equality Jacobian border with a structurally-present diagonal.
// Duplicate coordinates accumulate. Pattern capture at compile time and
// per-iteration numeric refill both walk through this single function, so
// the slot mapping cannot drift between the two.
func assembleKKT(p *nlp, ev *nlpEval, x, lam, mu, z []float64, emit func(i, j int, v float64)) {
	nx := p.nx
	p.hess(x, lam, mu, emit)
	for r := 0; r < p.nh; r++ {
		w := mu[r] / z[r]
		row := ev.DH[r]
		for _, a := range row {
			for _, b := range row {
				emit(a.col, b.col, w*a.val*b.val)
			}
		}
	}
	for i, row := range ev.DG {
		for _, a := range row {
			emit(nx+i, a.col, a.val)
			emit(a.col, nx+i, a.val)
		}
		// Keep the diagonal structurally present for robustness.
		emit(nx+i, nx+i, 0)
	}
}

// kktSystem holds the compiled KKT linear system: the CSC matrix with its
// fixed structural pattern, the emission→value-slot map, the fill-reducing
// column pre-order, the LU factorization whose symbolic analysis is reused
// across iterations (and solves), and the solve buffers. The zero value is
// ready to use; compile runs lazily on the first iteration.
type kktSystem struct {
	dim   int
	nEmit int
	mat   *sparse.CSC
	// emitVal maps the k-th emission of assembleKKT to its value slot; the
	// refill accumulates (duplicate coordinates sum, COO-style). ri/ci and
	// emitUniq retain the captured coordinates so refill can verify each
	// emission lands where the compile recorded it.
	emitVal  []int
	emitUniq []int
	ri, ci   []int
	colPerm  []int
	lu       *sparse.LU
	sol      []float64
	work     []float64
	// refillFn is the refill emitter, built once at compile time with its
	// cursor state (refillE/refillDrift) hoisted onto the struct: a
	// closure literal inside refill would be re-allocated on every
	// iteration (emit escapes through the indirect p.hess call), which is
	// exactly the allocation class the steady-state zero-alloc pin bans.
	refillFn    func(i, j int, v float64)
	vals        []float64
	refillE     int
	refillDrift int
	// compiledThisSolve tells a pattern compiled in the current solve from
	// one a Context carried over from an earlier solve (Context.acquire
	// clears it); solve treats emission drift against the two differently.
	compiledThisSolve bool
	// counters for tests and telemetry: factors counts full
	// factorizations, the first one plus every repivot
	compiles, factors, refactors, repivots int
}

func (k *kktSystem) compiled() bool { return k.mat != nil }

// compile records one structural emission of the full KKT assembly,
// deduplicates coordinates, and compiles the CSC pattern plus the
// emission→slot map. The values captured along the way are accumulated
// into the matrix, so the compile iteration needs no separate refill pass.
func (k *kktSystem) compile(p *nlp, ev *nlpEval, x, lam, mu, z []float64) {
	dim := p.nx + p.ng
	var ri, ci []int
	seen := make(map[int64]int)
	var emitUniq []int
	var vals []float64
	capture := func(i, j int, v float64) {
		key := int64(i)*int64(dim) + int64(j)
		u, ok := seen[key]
		if !ok {
			u = len(ri)
			seen[key] = u
			ri = append(ri, i)
			ci = append(ci, j)
		}
		emitUniq = append(emitUniq, u)
		vals = append(vals, v)
	}
	assembleKKT(p, ev, x, lam, mu, z, capture)
	mat, slot := sparse.CompilePattern(dim, dim, ri, ci)
	k.dim = dim
	k.nEmit = len(emitUniq)
	k.mat = mat
	k.emitUniq = emitUniq
	k.ri, k.ci = ri, ci
	k.emitVal = make([]int, len(emitUniq))
	val := mat.Values() // zeroed by CompilePattern
	for e, u := range emitUniq {
		s := slot[u]
		k.emitVal[e] = s
		val[s] += vals[e]
	}
	if p.order != nil {
		k.colPerm = p.order(mat)
	} else {
		k.colPerm = sparse.MinDegree(mat)
	}
	k.lu = nil
	k.sol = make([]float64, dim)
	k.work = make([]float64, dim)
	k.vals = val
	k.refillFn = func(i, j int, v float64) {
		e := k.refillE
		if e < len(k.emitVal) {
			if u := k.emitUniq[e]; i != k.ri[u] || j != k.ci[u] {
				if k.refillDrift < 0 {
					k.refillDrift = e
				}
			} else {
				k.vals[k.emitVal[e]] += v
			}
		}
		k.refillE = e + 1
	}
	k.compiles++
	k.compiledThisSolve = true
}

// refill overwrites the matrix values in place through the slot map — no
// COO construction, no CSC compression, no pattern work. Every emission is
// checked against the coordinates recorded at compile time (count AND
// position), so a drifting (value-dependent) emitter fails loudly instead
// of silently accumulating into the wrong slots.
func (k *kktSystem) refill(p *nlp, ev *nlpEval, x, lam, mu, z []float64) error {
	val := k.vals
	for i := range val {
		val[i] = 0
	}
	k.refillE, k.refillDrift = 0, -1
	assembleKKT(p, ev, x, lam, mu, z, k.refillFn)
	if k.refillE != k.nEmit {
		return fmt.Errorf("opf: KKT emission count drifted: %d entries, compiled pattern has %d", k.refillE, k.nEmit)
	}
	if k.refillDrift >= 0 {
		u := k.emitUniq[k.refillDrift]
		return fmt.Errorf("opf: KKT emission %d drifted from compiled coordinate (%d,%d): the hess/eval pattern is not structural", k.refillDrift, k.ri[u], k.ci[u])
	}
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
		if err := k.refill(p, ev, x, lam, mu, z); err != nil {
			if k.compiledThisSolve {
				return nil, err
			}
			k.mat = nil
		}
	}
	if !k.compiled() {
		// compile captures the pattern AND accumulates the values, so the
		// compile iteration needs no refill pass.
		k.compile(p, ev, x, lam, mu, z)
	}
	sol, err := k.factorAndSolve(rhs)
	if err != nil {
		return nil, fmt.Errorf("singular KKT system: %w", err)
	}
	return sol, nil
}

// factorAndSolve solves the current matrix against rhs into k.sol. The
// first call runs a full factorization; later calls (including across
// warm-started solves) reuse the symbolic analysis via Refactorize, with
// the same relative pivot-stability fallback powerflow/newton.go uses: a
// frozen pivot gone unstable triggers one in-place Repivot — fresh row
// pivots and symbolic analysis into the same storage, keeping the
// fill-reducing column pre-order.
func (k *kktSystem) factorAndSolve(rhs []float64) ([]float64, error) {
	switch {
	case k.lu == nil:
		lu, err := sparse.Factorize(k.mat, sparse.Options{ColPerm: k.colPerm})
		if err != nil {
			return nil, err
		}
		k.lu = lu
		k.factors++
	case k.lu.Refactorize(k.mat) == nil:
		k.refactors++
	default:
		if err := k.lu.Repivot(k.mat); err != nil {
			return nil, err
		}
		k.factors++
		k.repivots++
	}
	if err := k.lu.SolveInto(k.sol, rhs, k.work); err != nil {
		return nil, err
	}
	return k.sol, nil
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
// the bus twice (once per half), which measurably cuts LU fill versus
// scalar minimum degree on the full pattern: on the last KKT matrix of a
// cold solve, at the default pivot threshold, 40-65% fewer factor
// nonzeros on case57-case300 (10% on case14). The gain depends on the
// factorization keeping the order; at the stricter threshold 0.1, which
// pivots off the diagonal in about half the columns, it was 20-30%.
//
// Two designs that sound plausible measure WORSE, so don't resurrect them
// without re-profiling: eliminating the equality border strictly last
// (tail=true for balance supernodes) inflates fill 10-50% — the deferred
// rows' quotient cliques grow monotonically while every variable is
// eliminated under them; and separating (Va,Vm) pairs from (P,Q) pairs as
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
	return sparse.BlockMinDegree(m, super, nil)
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

// Context carries the compiled KKT pattern, fill-reducing ordering and LU
// symbolic analysis of an ACOPF problem across solves. Pass it via
// Options.Context when re-solving the SAME network topology with different
// ratings, loads or start points — SCOPF tightening/backoff rounds,
// sensitivity impact re-solves, warm-started comparative studies — and the
// re-solves skip pattern compilation entirely, going straight to slot-map
// refill + Refactorize. A topology or generator-status change is detected
// by structural signature and recompiles transparently.
//
// A Context is NOT safe for concurrent use; give each goroutine its own.
type Context struct {
	sig   *kktSig
	kkt   *kktSystem
	es    *evalScratch
	prior int // compile count of replaced systems
	// readRefactors/readRepivots are the current system's counts at the
	// last TakeFactorizations. A replacement system starts them at minus
	// the replaced one's unread counts, so a structural change loses none.
	readRefactors, readRepivots int
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

// TakeFactorizations reports the KKT refactorizations (frozen pivots
// reused) and repivots (a frozen pivot went unstable, so the factor was
// recomputed with fresh row pivots) run through this context since the
// previous call. The first factorization of a compiled pattern is
// neither.
func (c *Context) TakeFactorizations() (refactors, repivots int) {
	if c.kkt == nil {
		return 0, 0
	}
	refactors = c.kkt.refactors - c.readRefactors
	repivots = c.kkt.repivots - c.readRepivots
	c.readRefactors, c.readRepivots = c.kkt.refactors, c.kkt.repivots
	return refactors, repivots
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
		c.readRefactors -= c.kkt.refactors
		c.readRepivots -= c.kkt.repivots
	}
	c.sig = sig
	c.kkt = &kktSystem{}
	c.es = newEvalScratch(prob)
	prob.es = c.es
	return c.kkt
}
