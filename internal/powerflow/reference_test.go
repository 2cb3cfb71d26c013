package powerflow_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// injectionsRef is the reference of the Newton evaluation: cos(va) and
// sin(va) from separate math.Cos and math.Sin calls, then one walk over
// y.NZ in storage order adding every entry's term into p[i] and q[i].
// TestInjectionsMatchReference pins injectionsInto to it bit for bit.
func injectionsRef(y *model.Ybus, vm, va []float64, cs, sn, p, q []float64) {
	for i := range p {
		p[i], q[i] = 0, 0
		cs[i] = math.Cos(va[i])
		sn[i] = math.Sin(va[i])
	}
	for k, nz := range y.NZ {
		yij := y.NZv[k]
		g, b := real(yij), imag(yij)
		if g == 0 && b == 0 {
			continue
		}
		i, j := nz[0], nz[1]
		ct := cs[i]*cs[j] + sn[i]*sn[j] // cos(va_i − va_j)
		st := sn[i]*cs[j] - cs[i]*sn[j] // sin(va_i − va_j)
		vv := vm[i] * vm[j]
		p[i] += vv * (g*ct + b*st)
		q[i] += vv * (g*st - b*ct)
	}
}

// TestInjectionsMatchReference compares injectionsInto with injectionsRef
// bit for bit — p, q, cos(va) and sin(va) — on case14–300 at three states:
// the stored voltage profile, a seeded random perturbation of it, and the
// stored profile on a Ybus with one branch patched out, whose coupling
// entries become exact zeros the evaluation skips.
func TestInjectionsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, name := range []string{"case14", "case30", "case57", "case118", "case300"} {
		n := cases.MustLoad(name)
		nb := len(n.Buses)
		vm, va := make([]float64, nb), make([]float64, nb)
		for i, b := range n.Buses {
			vm[i], va[i] = b.Vm, b.Va
		}
		pvm, pva := make([]float64, nb), make([]float64, nb)
		for i := range vm {
			pvm[i] = vm[i] * (1 + 0.05*rng.NormFloat64())
			pva[i] = va[i] + 0.2*rng.NormFloat64()
		}
		y := model.BuildYbus(n)
		patched := y.Copy()
		zeros := 0
		for k := range n.Branches {
			p, ok := patched.PatchBranchOutage(n, k)
			if !ok {
				continue
			}
			for _, v := range patched.NZv {
				if v == 0 {
					zeros++
				}
			}
			if zeros > 0 {
				break
			}
			patched.Restore(p)
		}
		if zeros == 0 {
			t.Fatalf("%s: no single-branch patch leaves an exact-zero Ybus entry", name)
		}
		for _, tc := range []struct {
			state  string
			y      *model.Ybus
			vm, va []float64
		}{
			{"stored profile", y, vm, va},
			{"perturbed", y, pvm, pva},
			{"branch patched out", patched, vm, va},
		} {
			what := fmt.Sprintf("%s %s", name, tc.state)
			got := [4][]float64{make([]float64, nb), make([]float64, nb), make([]float64, nb), make([]float64, nb)}
			want := [4][]float64{make([]float64, nb), make([]float64, nb), make([]float64, nb), make([]float64, nb)}
			powerflow.InjectionsInto(tc.y, tc.vm, tc.va, got[0], got[1], got[2], got[3])
			injectionsRef(tc.y, tc.vm, tc.va, want[0], want[1], want[2], want[3])
			for s, label := range []string{"cos", "sin", "p", "q"} {
				for i := range got[s] {
					if g, w := math.Float64bits(got[s][i]), math.Float64bits(want[s][i]); g != w {
						t.Fatalf("%s: %s[%d] = %v (%#x), reference %v (%#x)", what, label, i, got[s][i], g, want[s][i], w)
					}
				}
			}
		}
	}
}
