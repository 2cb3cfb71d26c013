package opf

import (
	"fmt"
	"math"

	"gridmind/internal/model"
	"gridmind/internal/powerflow"
	"gridmind/internal/sparse"
)

// SolveDCOPF solves the linearized DC optimal power flow on the same
// interior-point core as the AC problem: variables [θ; Pg], nodal balance
// B·θ = Pg − Pd, symmetric flow limits on rated branches and generator
// limits. It is used as the screening baseline in comparative studies.
func SolveDCOPF(n *model.Network) (*Solution, error) {
	return solveDCOPF(n, ipmOptions{})
}

// solveDCOPF is SolveDCOPF under explicit interior-point options.
func solveDCOPF(n *model.Network, iopts ipmOptions) (*Solution, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	base := n.BaseMVA
	nb := len(n.Buses)
	var gens []int
	genOf := make([][]int, nb)
	for gi, g := range n.Gens {
		if !g.InService {
			continue
		}
		genOf[g.Bus] = append(genOf[g.Bus], len(gens))
		gens = append(gens, gi)
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("opf: %s has no in-service generators", n.Name)
	}
	slack := n.SlackBus()

	type branchRow struct {
		k    int
		f, t int     // terminal buses
		b    float64 // susceptance 1/x
		rate float64 // p.u.
		sh   float64 // phase shift
	}
	var rated []branchRow
	for k, br := range n.Branches {
		if br.InService && br.X != 0 && br.RateMVA > 0 {
			rated = append(rated, branchRow{
				k: k, f: br.From, t: br.To,
				b: 1 / br.X, rate: br.RateMVA / base, sh: br.Shift,
			})
		}
	}

	ixTh := func(i int) int { return i }
	ixPg := func(p int) int { return nb + p }
	nx := nb + len(gens)
	ng := nb + 1
	nh := 2*len(rated) + 2*len(gens)

	// Precompute constant Jacobians: balance rows B_i·θ − ΣPg + Pd.
	adj := make([][]jentry, nb) // per-bus θ-entries of the balance row
	for _, br := range n.Branches {
		if !br.InService || br.X == 0 {
			continue
		}
		b := 1 / br.X
		f, t := br.From, br.To
		adj[f] = append(adj[f], jentry{ixTh(f), b}, jentry{ixTh(t), -b})
		adj[t] = append(adj[t], jentry{ixTh(t), b}, jentry{ixTh(f), -b})
	}

	x0 := make([]float64, nx)
	for p, gi := range gens {
		g := n.Gens[gi]
		x0[ixPg(p)] = clampInterior(g.P, g.PMin, g.PMax) / base
	}

	// The DC Jacobians are FULLY constant — values included, not just the
	// row patterns — so the whole DG/DH layout is built once per solve and
	// each iteration's eval refills only F/Grad/G/H in place, allocating
	// nothing (the same evalScratch treatment acopf.eval gets, one step
	// further because no Jacobian value depends on x).
	scratch := &nlpEval{
		Grad: make([]float64, nx),
		G:    make([]float64, ng),
		DG:   make([][]jentry, ng),
		H:    make([]float64, nh),
		DH:   make([][]jentry, nh),
	}
	for i := 0; i < nb; i++ {
		row := make([]jentry, 0, len(adj[i])+len(genOf[i]))
		row = append(row, adj[i]...)
		for _, p := range genOf[i] {
			row = append(row, jentry{ixPg(p), -1})
		}
		scratch.DG[i] = row
	}
	scratch.DG[nb] = []jentry{{ixTh(slack), 1}}
	for ri, br := range rated {
		scratch.DH[2*ri] = []jentry{{ixTh(br.f), br.b}, {ixTh(br.t), -br.b}}
		scratch.DH[2*ri+1] = []jentry{{ixTh(br.f), -br.b}, {ixTh(br.t), br.b}}
	}
	genOff := 2 * len(rated)
	for p := range gens {
		scratch.DH[genOff+2*p] = []jentry{{ixPg(p), -1}}
		scratch.DH[genOff+2*p+1] = []jentry{{ixPg(p), 1}}
	}
	loadP := make([]float64, nb)
	for _, l := range n.Loads {
		if l.InService {
			loadP[l.Bus] += l.P
		}
	}

	eval := func(x []float64) *nlpEval {
		ev := scratch
		ev.F = 0
		for p, gi := range gens {
			g := n.Gens[gi]
			pmw := x[ixPg(p)] * base
			ev.F += g.Cost.At(pmw) * costScale
			ev.Grad[ixPg(p)] = g.Cost.Marginal(pmw) * base * costScale
		}
		for i := 0; i < nb; i++ {
			// The balance row already carries both the θ and the −Pg
			// entries, so one dot product over it is the whole residual.
			var bal float64
			for _, e := range ev.DG[i] {
				bal += e.val * x[e.col]
			}
			ev.G[i] = bal + loadP[i]/base
		}
		ev.G[nb] = x[ixTh(slack)]

		for ri, br := range rated {
			flow := br.b * (x[ixTh(br.f)] - x[ixTh(br.t)] - br.sh)
			ev.H[2*ri] = flow - br.rate
			ev.H[2*ri+1] = -flow - br.rate
		}
		for p, gi := range gens {
			g := n.Gens[gi]
			ev.H[genOff+2*p] = g.PMin/base - x[ixPg(p)]
			ev.H[genOff+2*p+1] = x[ixPg(p)] - g.PMax/base
		}
		return ev
	}
	hess := func(x, lam, mu, z []float64, sink *kktSink) {
		for p, gi := range gens {
			sink.emit(ixPg(p), ixPg(p), 2*n.Gens[gi].Cost.C2*base*base*costScale)
		}
		// Keep θ diagonal structurally nonzero: the DC objective has no
		// curvature there, curvature comes only via constraints.
		for i := 0; i < nb; i++ {
			sink.emit(ixTh(i), ixTh(i), 0)
		}
		// Every inequality row is linear: M gets its Gauss term only.
		sink.gauss(scratch.DH, mu, z)
	}

	// The DC analogue of acopf.kktOrder: each bus's θ unknown pairs with
	// its balance row (identical adjacency), generators stay singletons,
	// plus the slack-angle pin.
	order := func(m *sparse.CSC) []int {
		super := make([][]int, 0, nb+len(gens)+1)
		for b := 0; b < nb; b++ {
			super = append(super, []int{ixTh(b), nx + b})
		}
		for p := range gens {
			super = append(super, []int{ixPg(p)})
		}
		super = append(super, []int{nx + nb})
		return sparse.BlockMinDegree(m, super)
	}

	res, ipmErr := solveIPM(&nlp{nx: nx, ng: ng, nh: nh, x0: x0, eval: eval, hess: hess, order: order}, iopts)

	sol := &Solution{
		CaseName:           n.Name,
		Solved:             res.Converged,
		Method:             MethodDCOPF,
		Iterations:         res.Iterations,
		ObjectiveCost:      res.F / costScale,
		ConvergenceMessage: res.Message,
		GenP:               make([]float64, len(n.Gens)),
		GenQ:               make([]float64, len(n.Gens)),
		LMP:                make([]float64, nb),
	}
	if res.X != nil {
		vm := make([]float64, nb)
		for i := range vm {
			vm[i] = 1
		}
		sol.Voltages = powerflow.VoltageProfile{Vm: vm, Va: append([]float64(nil), res.X[:nb]...)}
		sol.MinVoltagePU, sol.MaxVoltagePU = 1, 1
		for p, gi := range gens {
			sol.GenP[gi] = res.X[ixPg(p)] * base
		}
		for i := 0; i < nb; i++ {
			sol.LMP[i] = res.Lam[i] / (base * costScale)
		}
		// DC flow tail rides the shared record conversion: the lossless
		// linear flows become per-end complex flows (+pf, −pf) and the
		// loading/binding math is the same FillBranchFlows/foldFlowStats
		// path the AC solvers use.
		nbr := len(n.Branches)
		sf := make([]complex128, nbr)
		st := make([]complex128, nbr)
		for k, br := range n.Branches {
			if br.InService && br.X != 0 {
				pf := (res.X[ixTh(br.From)] - res.X[ixTh(br.To)] - br.Shift) / br.X * base
				sf[k], st[k] = complex(pf, 0), complex(-pf, 0)
			}
		}
		sol.Flows = make([]powerflow.BranchFlow, nbr)
		powerflow.FillBranchFlows(n, sol.Flows, sf, st)
		sol.foldFlowStats()
		var maxMis float64
		ev := eval(res.X)
		for i := 0; i < nb; i++ {
			maxMis = math.Max(maxMis, math.Abs(ev.G[i]))
		}
		sol.MaxMismatchPU = maxMis
	}
	if ipmErr != nil {
		return sol, fmt.Errorf("opf: %s dcopf: %w", n.Name, ipmErr)
	}
	return sol, nil
}
