// Package opf implements optimal power flow solvers: a primal-dual
// interior-point AC OPF (the Go counterpart of the PYPOWER/MATPOWER solver
// the paper invokes through pandapower's runopp), a DC OPF on the same
// interior-point core, and an economic-dispatch + power-flow fallback used
// by the agents' automatic recovery path.
package opf

// pairTerm holds u = Vi·Vk·(A·cosθ + B·sinθ) with θ = θi − θk, along with
// its gradient and Hessian over the variable block (θi, θk, Vi, Vk).
//
// Every trigonometric quantity in the polar OPF reduces to this form:
//
//	active injection  P_ik: A = G_ik,  B = B_ik
//	reactive injection Q_ik: A = −B_ik, B = G_ik
//	branch flows Pf/Qf, Pt/Qt: same with the two-port admittances
//
// so one audited derivation covers all constraint derivatives. The block
// order is fixed: index 0=θi, 1=θk, 2=Vi, 3=Vk.
//
// The kernels take c = cosθ and s = sinθ from the evaluation scratch's
// trig cache (evalscratch.go) and write into a caller-owned term, so a
// term is neither recomputed nor copied per use.
type pairTerm struct {
	Val  float64
	Grad [4]float64
	Hess [4][4]float64
}

// pairGrad writes the value and gradient of the term into t; t.Hess is
// left untouched.
func pairGrad(t *pairTerm, a, b, vi, vk, c, s float64) {
	e := a*c + b*s  // the trig kernel
	d := -a*s + b*c // de/dθi
	vv := vi * vk
	t.Val = vv * e
	t.Grad = [4]float64{vv * d, -vv * d, vk * e, vi * e}
}

// pairHess writes the Hessian of the term into t, symmetric and fully
// filled; t.Val and t.Grad are left untouched.
func pairHess(t *pairTerm, a, b, vi, vk, c, s float64) {
	e := a*c + b*s
	d := -a*s + b*c
	vv := vi * vk
	// dd/dθi = −e; symmetry in θk with opposite signs.
	h00, h01, h11 := -vv*e, vv*e, -vv*e
	h02, h03, h12, h13 := vk*d, vi*d, -vk*d, -vi*d
	// Element by element: a composite literal is built on the stack and
	// block-copied into t.
	h := &t.Hess
	h[0][0], h[0][1], h[0][2], h[0][3] = h00, h01, h02, h03
	h[1][0], h[1][1], h[1][2], h[1][3] = h01, h11, h12, h13
	h[2][0], h[2][1], h[2][2], h[2][3] = h02, h12, 0, e
	h[3][0], h[3][1], h[3][2], h[3][3] = h03, h13, e, 0
}
