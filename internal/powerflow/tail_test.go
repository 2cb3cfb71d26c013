package powerflow_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// TestHypotMatchesMathHypot holds the package hypot to math.Hypot bit for
// bit: the special cases, subnormal and extreme magnitudes, and seeded
// random pairs whose exponents span the whole float64 range.
func TestHypotMatchesMathHypot(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	sub := math.SmallestNonzeroFloat64
	special := []float64{0, math.Copysign(0, -1), inf, -inf, nan, -nan, 1, -1, sub, -sub,
		4 * sub, 0x1p-1022, 0x1p-1023, math.MaxFloat64, -math.MaxFloat64, 0x1p1000, 0x1p-1000}
	check := func(p, q float64) {
		if got, want := powerflow.Hypot(p, q), math.Hypot(p, q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("hypot(%g, %g) = %g (%#x), math.Hypot %g (%#x)", p, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, p := range special {
		for _, q := range special {
			check(p, q)
		}
	}
	rng := rand.New(rand.NewSource(47))
	draw := func() float64 {
		switch rng.Intn(8) {
		case 0: // any bit pattern: NaNs, infinities and subnormals included
			return math.Float64frombits(rng.Uint64())
		case 1: // near the flows the tail sees, in MW
			return 1e3 * rng.NormFloat64()
		default: // any exponent
			return math.Ldexp(rng.Float64(), rng.Intn(2100)-1075) * float64(1-2*rng.Intn(2))
		}
	}
	for range 1 << 20 {
		p, q := draw(), draw()
		if rng.Intn(16) == 0 { // close magnitudes, where the swap decides
			q = math.Nextafter(p, inf)
		}
		check(p, q)
	}
}

// resultBits flattens a result to the bits of every field, walking
// slices and structs, so two results compare bit for bit (signed zeros
// and NaN payloads included).
func resultBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		return append(out, math.Float64bits(v.Float()))
	case reflect.Bool:
		if v.Bool() {
			return append(out, 1)
		}
		return append(out, 0)
	case reflect.Int:
		return append(out, uint64(v.Int()))
	case reflect.Slice:
		out = append(out, uint64(v.Len()))
		for i := range v.Len() {
			out = resultBits(v.Index(i), out)
		}
		return out
	case reflect.Struct:
		for i := range v.NumField() {
			out = resultBits(v.Field(i), out)
		}
		return out
	}
	panic(fmt.Sprintf("resultBits: unexpected kind %v", v.Kind()))
}

func sameResult(t *testing.T, what string, got, ref *powerflow.Result) {
	t.Helper()
	if !reflect.DeepEqual(resultBits(reflect.ValueOf(*got), nil), resultBits(reflect.ValueOf(*ref), nil)) {
		t.Fatalf("%s: result differs from the reference tail\n got %+v\nwant %+v", what, *got, *ref)
	}
}

// TestResultTailMatchesReference holds the result tail, which reads the
// Newton kernel's last evaluation, to finishResultRef bit for bit: every
// record of the N-1 and generator sweeps of case14–300 (warm, Q limits
// enforced, one solver per case as a sweep worker has), one-shot solves,
// unconverged solves and a lone-slack network. On the case300 N-1 sweep
// it also pins the iteration, factorization and base-start totals, which
// reusing the evaluation must not move.
func TestResultTailMatchesReference(t *testing.T) {
	for _, name := range []string{"case14", "case30", "case57", "case118", "case300"} {
		n := cases.MustLoad(name)
		s, err := powerflow.NewViewSolver(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		view := model.NewOutageView(n)
		base, ref, err := s.SolveAndRef(view, powerflow.Options{EnforceQLimits: true})
		if err != nil || !base.Converged {
			t.Fatalf("%s base: err %v", name, err)
		}
		sameResult(t, name+" one-shot", base, ref)
		warm := base.Voltages.Clone()
		opts := powerflow.Options{EnforceQLimits: true, Warm: warm}

		var iters, facts, starts, compared int
		for k, br := range n.Branches {
			if !br.InService {
				continue
			}
			view.Reset()
			view.OutBranch(k)
			got, ref, _ := s.SolveAndRef(view, opts)
			iters += got.Iterations
			facts += got.Factorizations
			starts += got.BaseFactorStarts
			if ref != nil {
				sameResult(t, fmt.Sprintf("%s branch %d", name, k), got, ref)
				compared++
			}
		}
		for g, gen := range n.Gens {
			if !gen.InService {
				continue
			}
			view.Reset()
			view.OutGen(g)
			if got, ref, _ := s.SolveAndRef(view, opts); ref != nil {
				sameResult(t, fmt.Sprintf("%s generator %d", name, g), got, ref)
				compared++
			}
		}
		if compared == 0 {
			t.Fatalf("%s: no sweep record reached the tail", name)
		}
		t.Logf("%s N-1: %d steps, %d factorizations, %d base starts, %d compared", name, iters, facts, starts, compared)
		if name == "case300" && (iters != 2997 || facts != 637 || starts != 351) {
			t.Fatalf("case300 N-1: %d steps, %d factorizations, %d base starts; want 2997, 637, 351", iters, facts, starts)
		}

		view.Reset()
		flat, ref, err := s.SolveAndRef(view, powerflow.Options{FlatStart: true, MaxIter: 2, Tol: 1e-300})
		if flat.Converged || !errors.Is(err, powerflow.ErrNotConverged) {
			t.Fatalf("%s: a flat start to a 1e-300 tolerance converged (err %v)", name, err)
		}
		sameResult(t, name+" unconverged", flat, ref)
	}

	lone := &model.Network{
		Name:    "lone-slack",
		BaseMVA: 100,
		Buses:   []model.Bus{{ID: 1, Type: model.Slack, Vm: 1.02, Va: 0.3, GS: 5, BS: 20}},
		Loads:   []model.Load{{Bus: 0, P: 40, Q: 10, InService: true}},
		Gens:    []model.Generator{{Bus: 0, PMax: 100, QMin: -50, QMax: 50, VSetpoint: 1.02, InService: true}},
	}
	s, err := powerflow.NewViewSolver(lone, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ref, err := s.SolveAndRef(model.NewOutageView(lone), powerflow.Options{EnforceQLimits: true})
	if err != nil || !got.Converged {
		t.Fatalf("lone slack: err %v", err)
	}
	if got.GenQ[0] == 0 {
		t.Fatal("lone slack: the shunt draws no reactive power; the fixture tests nothing")
	}
	sameResult(t, "lone slack", got, ref)
}
