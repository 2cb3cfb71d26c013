package opf

import (
	"fmt"

	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// referenceKKT is the from-scratch Newton-direction step the fixed-pattern
// kktSystem is pinned against: build a COO every iteration, compress it to
// CSC, reuse an RCM ordering computed on the first iteration's pattern,
// and run a full symbolic+numeric LU factorization with threshold partial
// pivoting at 0.1 and no shift. It shares no linear algebra with the
// production static LDLᵀ, so the differential harness checks the shift,
// the refinement and the order together.
type referenceKKT struct {
	colPerm []int
}

func (rk *referenceKKT) solve(p *nlp, ev *nlpEval, x, lam, mu, z, rhs []float64) ([]float64, error) {
	dim := p.nx + p.ng
	kkt := sparse.NewCOO(dim, dim)
	assembleKKT(p, ev, x, lam, mu, z, &kktSink{fn: kkt.Add})
	csc := kkt.ToCSC()
	if rk.colPerm == nil {
		rk.colPerm = sparse.RCM(csc)
	}
	lu, err := sparse.Factorize(csc, sparse.Options{ColPerm: rk.colPerm, DiagPreference: 0.1})
	if err != nil {
		return nil, fmt.Errorf("singular KKT system: %w", err)
	}
	sol, err := lu.Solve(rhs)
	if err != nil {
		return nil, fmt.Errorf("singular KKT system: %w", err)
	}
	return sol, nil
}

// solveACOPFReference is SolveACOPF (cold, default tolerances) with the
// Newton direction computed by referenceKKT.
func solveACOPFReference(n *model.Network) (*Solution, error) {
	prob, err := newACOPF(n)
	if err != nil {
		return nil, err
	}
	p := &nlp{
		nx: prob.nx(), ng: prob.ngEq(), nh: prob.nIneq(),
		x0: prob.initialPoint(nil), eval: prob.eval, hess: prob.hessian,
	}
	res, err := solveIPM(p, ipmOptions{kkt: &referenceKKT{}})
	return extractSolution(prob, res), err
}
