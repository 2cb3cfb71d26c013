package powerflow_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// TestSolveResidualIndependentEvaluation checks what Solve returns against
// powerflow.Mismatch — complex-arithmetic S = V·conj(Y·V), sharing nothing
// with the Newton kernel's polar injections, mismatch or Jacobian — under
// the options serving call sites use: Q-limit enforcement, from a flat
// start and from the case's stored profile. Every non-slack bus must balance P; a PQ bus must balance Q; a PV bus must
// either hold its setpoint with reactive output inside its aggregate
// capability, or sit exactly on the limit it was switched at. The nominal
// cases hold every PV bus; at 1.2x demand Q-limits bind, so the switched
// arm runs too.
func TestSolveResidualIndependentEvaluation(t *testing.T) {
	const tol = 1e-7 // p.u.; Solve's own tolerance is 1e-8
	for _, name := range []string{"case14", "case30", "case57", "case118", "case300"} {
		for _, scale := range []float64{1, 1.2} {
			for _, flat := range []bool{true, false} {
				checkResidual(t, name, scale, flat, tol)
			}
		}
	}
}

func checkResidual(t *testing.T, name string, scale float64, flat bool, tol float64) {
	t.Helper()
	n := cases.MustLoad(name).Clone()
	for i := range n.Loads {
		n.Loads[i].P *= scale
		n.Loads[i].Q *= scale
	}
	start := "case start"
	if flat {
		start = "flat start"
	}
	name = fmt.Sprintf("%s x%.1f %s", name, scale, start)
	res, err := powerflow.Solve(n, powerflow.Options{FlatStart: flat, EnforceQLimits: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if flat && res.Iterations == 0 {
		t.Fatalf("%s: zero iterations from a flat start", name)
	}
	mis := powerflow.Mismatch(n, &res.Voltages)

	nb := len(n.Buses)
	hasGen := make([]bool, nb)
	qMin := make([]float64, nb)
	qMax := make([]float64, nb)
	vSet := make([]float64, nb)
	for i := range vSet {
		vSet[i] = 1
		if !flat {
			vSet[i] = n.Buses[i].Vm
		}
	}
	for _, g := range n.Gens {
		if !g.InService {
			continue
		}
		hasGen[g.Bus] = true
		qMin[g.Bus] += g.QMin / n.BaseMVA
		qMax[g.Bus] += g.QMax / n.BaseMVA
		if g.VSetpoint > 0 {
			vSet[g.Bus] = g.VSetpoint
		}
	}
	held, switched := 0, 0
	for i, b := range n.Buses {
		if b.Type == model.Slack {
			continue
		}
		if dp := math.Abs(real(mis[i])); dp > tol {
			t.Fatalf("%s bus %d: P residual %.3e", name, b.ID, dp)
		}
		if b.Type != model.PV || !hasGen[i] {
			if dq := math.Abs(imag(mis[i])); dq > tol {
				t.Fatalf("%s bus %d: Q residual %.3e at a PQ bus", name, b.ID, dq)
			}
			continue
		}
		qGen := -imag(mis[i]) // injected − (−load) = generator share
		switch {
		case math.Abs(res.Voltages.Vm[i]-vSet[i]) < 1e-12:
			held++
			if qGen > qMax[i]+1e-6 || qGen < qMin[i]-1e-6 {
				t.Fatalf("%s bus %d: holds V with Q %.6f outside [%.6f, %.6f]", name, b.ID, qGen, qMin[i], qMax[i])
			}
		case math.Abs(qGen-qMax[i]) < tol || math.Abs(qGen-qMin[i]) < tol:
			switched++
		default:
			t.Fatalf("%s bus %d: Vm %.6f off setpoint %.6f with Q %.6f on neither limit [%.6f, %.6f]",
				name, b.ID, res.Voltages.Vm[i], vSet[i], qGen, qMin[i], qMax[i])
		}
	}
	if scale > 1 && switched == 0 {
		t.Fatalf("%s: no PV bus hit a Q-limit; the switched arm went unchecked", name)
	}
	t.Logf("%s: %d iterations, %d PV held, %d switched to PQ", name, res.Iterations, held, switched)
}

// TestSolveResultOwnership pins the one-shot ownership contract: Solve
// discards the solver it ran on, so a result's Flows, Voltages, GenP and
// GenQ are its own and a later Solve — here on the same network at a
// different demand — leaves them untouched. opf.SolveDispatch keeps
// res.Flows without copying it.
func TestSolveResultOwnership(t *testing.T) {
	n := cases.MustLoad("case57").Clone()
	first, err := powerflow.Solve(n, powerflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flows := slices.Clone(first.Flows)
	vm, va := slices.Clone(first.Voltages.Vm), slices.Clone(first.Voltages.Va)
	genP, genQ := slices.Clone(first.GenP), slices.Clone(first.GenQ)

	for i := range n.Loads {
		n.Loads[i].P *= 1.1
		n.Loads[i].Q *= 1.1
	}
	second, err := powerflow.Solve(n, powerflow.Options{})
	if err != nil {
		t.Fatalf("at 1.1x: %v", err)
	}
	if slices.Equal(second.Voltages.Vm, vm) {
		t.Fatal("the 1.1x solve returned the nominal voltages; the check has no teeth")
	}
	if !slices.Equal(first.Flows, flows) || !slices.Equal(first.Voltages.Vm, vm) || !slices.Equal(first.Voltages.Va, va) ||
		!slices.Equal(first.GenP, genP) || !slices.Equal(first.GenQ, genQ) {
		t.Fatal("a second Solve changed the first result")
	}
}
