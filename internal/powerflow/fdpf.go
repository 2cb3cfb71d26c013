package powerflow

import (
	"math"

	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// fdpfInner runs fast-decoupled (XB scheme) iterations: the P-θ half step
// uses the B' matrix built from series reactances only; the Q-V half step
// uses B” taken from the imaginary part of the full Ybus. Both matrices
// are factorized once and reused every sweep, which is the method's speed
// advantage and why the agents use it as a cheap fallback. Branch statuses
// come from view, an outage view over n; y is the view's Ybus, patched for
// its outaged branches.
func fdpfInner(n *model.Network, view *model.OutageView, y *model.Ybus, c *classification, vm, va []float64, opts Options) (int, int, float64, bool, error) {
	nb := len(n.Buses)
	aPos := make([]int, nb)
	mPos := make([]int, nb)
	for i := range aPos {
		aPos[i], mPos[i] = -1, -1
	}
	na := 0
	for i := 0; i < nb; i++ {
		if i != c.slack {
			aPos[i] = na
			na++
		}
	}
	nm := 0
	for _, i := range c.pq {
		mPos[i] = nm
		nm++
	}
	if na == 0 {
		return 0, 0, 0, true, nil
	}

	// B': branch susceptances from 1/x, taps and resistance ignored.
	bp := sparse.NewCOO(na, na)
	for k, br := range n.Branches {
		if !view.BranchInService(k) || br.X == 0 {
			continue
		}
		b := 1 / br.X
		f, t := br.From, br.To
		if aPos[f] >= 0 {
			bp.Add(aPos[f], aPos[f], b)
		}
		if aPos[t] >= 0 {
			bp.Add(aPos[t], aPos[t], b)
		}
		if aPos[f] >= 0 && aPos[t] >= 0 {
			bp.Add(aPos[f], aPos[t], -b)
			bp.Add(aPos[t], aPos[f], -b)
		}
	}
	facts := 1
	luP, err := sparse.Factorize(bp.ToCSC(), sparse.Options{})
	if err != nil {
		return 0, facts, math.Inf(1), false, err
	}

	var luQ *sparse.LU
	if nm > 0 {
		// B'': −Im(Ybus) restricted to PQ buses.
		bpp := sparse.NewCOO(nm, nm)
		for k, nz := range y.NZ {
			i, j := nz[0], nz[1]
			if mPos[i] >= 0 && mPos[j] >= 0 {
				bpp.Add(mPos[i], mPos[j], -imag(y.NZv[k]))
			}
		}
		facts++
		luQ, err = sparse.Factorize(bpp.ToCSC(), sparse.Options{})
		if err != nil {
			return 0, facts, math.Inf(1), false, err
		}
	}

	rhsP := make([]float64, na)
	rhsQ := make([]float64, nm)
	dva := make([]float64, na)
	dvm := make([]float64, nm)
	workP := make([]float64, na)
	workQ := make([]float64, nm)
	p := make([]float64, nb)
	q := make([]float64, nb)
	cs := make([]float64, nb)
	sn := make([]float64, nb)
	var maxMis float64
	for iter := 1; iter <= opts.MaxIter; iter++ {
		injectionsInto(y, vm, va, cs, sn, p, q)
		maxMis = fdpfMismatch(c, aPos, mPos, vm, p, q, rhsP, rhsQ)
		if maxMis < opts.Tol {
			return iter - 1, facts, maxMis, true, nil
		}
		// P-θ half step.
		if err := luP.SolveInto(dva, rhsP, workP); err != nil {
			return iter, facts, maxMis, false, err
		}
		for i := 0; i < nb; i++ {
			if aPos[i] >= 0 {
				va[i] = angleWrap(va[i] + dva[aPos[i]])
			}
		}
		// Q-V half step.
		if nm > 0 {
			injectionsInto(y, vm, va, cs, sn, p, q)
			fdpfMismatch(c, aPos, mPos, vm, p, q, rhsP, rhsQ)
			if err := luQ.SolveInto(dvm, rhsQ, workQ); err != nil {
				return iter, facts, maxMis, false, err
			}
			for i := 0; i < nb; i++ {
				if mPos[i] >= 0 {
					vm[i] += dvm[mPos[i]]
					if vm[i] < 1e-3 {
						vm[i] = 1e-3
					}
				}
			}
		}
	}
	injectionsInto(y, vm, va, cs, sn, p, q)
	maxMis = fdpfMismatch(c, aPos, mPos, vm, p, q, rhsP, rhsQ)
	return opts.MaxIter, facts, maxMis, maxMis < opts.Tol, nil
}

// fdpfMismatch fills the scaled mismatch vectors ΔP/Vm and ΔQ/Vm and
// returns the unscaled maximum mismatch (the convergence criterion).
func fdpfMismatch(c *classification, aPos, mPos []int, vm, p, q, rhsP, rhsQ []float64) float64 {
	var maxMis float64
	for i := range p {
		if aPos[i] >= 0 {
			d := c.pSpec[i] - p[i]
			rhsP[aPos[i]] = d / vm[i]
			if a := math.Abs(d); a > maxMis {
				maxMis = a
			}
		}
		if mPos[i] >= 0 {
			d := c.qSpec[i] - q[i]
			rhsQ[mPos[i]] = d / vm[i]
			if a := math.Abs(d); a > maxMis {
				maxMis = a
			}
		}
	}
	return maxMis
}
