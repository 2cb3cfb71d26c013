package powerflow

import "gridmind/internal/model"

// SolveFullNewton is the full-Newton reference of the chord kernel: the
// one-shot Newton-Raphson solve of Solve, with every step taken on a
// freshly refilled and refactorized Jacobian.
func SolveFullNewton(n *model.Network, opts Options) (*Result, error) {
	opts.Algorithm = NewtonRaphson
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 30
	}
	return solveACOuter(n, opts, func(_ *model.Network, y *model.Ybus, c *classification, vm, va []float64, opts Options) (int, int, float64, bool, error) {
		return reducedState(y, c).newtonRound(y, c, vm, va, opts, 0)
	})
}
