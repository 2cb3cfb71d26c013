package scenario

import (
	"errors"
	"reflect"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// episodeSteps builds a realistic day: the diurnal load curve drives
// demand, a solar profile drives one unit's dispatch override, and a
// couple of maintenance-style branch outages punctuate the afternoon.
func episodeSteps(n *model.Network, steps int) []EpisodeStep {
	load := cases.LoadCurve(steps, 11)
	solar := cases.SolarCurve(steps, 12)
	// Treat the last generator as the solar unit, nameplated at half its
	// PMax so overrides always remain feasible.
	g := len(n.Gens) - 1
	cap := n.Gens[g].PMax / 2
	out := make([]EpisodeStep, steps)
	for i := range out {
		out[i] = EpisodeStep{
			LoadScale: load[i],
			GenP:      map[int]float64{g: solar[i] * cap},
		}
		if i > steps/2 && i < steps/2+3 {
			out[i].BranchesOut = []int{1}
		}
	}
	return out
}

// TestEpisodeDifferential drives the same day through the in-place view
// path and the clone-per-step reference, demanding agreement on every
// per-step security metric to 1e-9.
func TestEpisodeDifferential(t *testing.T) {
	for _, name := range []string{"case30", "case57"} {
		t.Run(name, func(t *testing.T) {
			n := cases.MustLoad(name)
			base := solveBase(t, n)
			steps := episodeSteps(n, 24)
			ref := episodeReference(n, base, steps, Options{})
			got, err := Episode(n, base, steps, Options{Pool: contingency.NewSweepPool(contingency.NewBase)})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Converged != got.Converged || ref.WorstStep != got.WorstStep {
				t.Fatalf("aggregate: ref (%d conv, worst %d) vs got (%d conv, worst %d)",
					ref.Converged, ref.WorstStep, got.Converged, got.WorstStep)
			}
			if !close9(ref.MinMarginPct, got.MinMarginPct) || !close9(ref.MinVoltagePU, got.MinVoltagePU) {
				t.Fatalf("aggregate margins: (%v, %v) vs (%v, %v)",
					ref.MinMarginPct, ref.MinVoltagePU, got.MinMarginPct, got.MinVoltagePU)
			}
			for i := range ref.Steps {
				r, g := ref.Steps[i], got.Steps[i]
				if r.Converged != g.Converged || r.Overloads != g.Overloads || r.VoltViols != g.VoltViols {
					t.Fatalf("step %d: %+v vs %+v", i, r, g)
				}
				if !close9(r.MaxLoadingPct, g.MaxLoadingPct) || !close9(r.MinVoltagePU, g.MinVoltagePU) ||
					!close9(r.MaxVoltagePU, g.MaxVoltagePU) || !close9(r.LossMW, g.LossMW) ||
					!close9(r.MarginPct, g.MarginPct) {
					t.Fatalf("step %d metrics: %+v vs %+v", i, r, g)
				}
			}
			if got.Converged != len(steps) {
				t.Fatalf("only %d/%d steps converged", got.Converged, len(steps))
			}
		})
	}
}

// TestEpisodeDeterminismAndWarmStart replays the same episode twice
// (bitwise identical results) and checks warm starting does its job:
// the episode's chained warm starts cost no more Newton iterations in
// total than solving every operating point cold, and strictly fewer on
// at least one step of the smooth curve.
func TestEpisodeDeterminismAndWarmStart(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	steps := episodeSteps(n, 24)
	a, err := Episode(n, base, steps, Options{Pool: contingency.NewSweepPool(contingency.NewBase)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Episode(n, base, steps, Options{Pool: contingency.NewSweepPool(contingency.NewBase)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("episode replay is not deterministic")
	}
	var warmTotal, coldTotal int
	strictWin := false
	for i, step := range steps {
		if !a.Steps[i].Converged {
			t.Fatalf("step %d did not converge", i)
		}
		m := n.Clone()
		if ls := (Event{LoadScale: step.LoadScale}).loadScale(); ls != 1 {
			for j := range m.Loads {
				m.Loads[j].P *= ls
				m.Loads[j].Q *= ls
			}
		}
		for g, p := range step.GenP {
			m.Gens[g].P = p
		}
		for _, k := range step.BranchesOut {
			m.Branches[k].InService = false
		}
		cold, err := powerflow.Solve(m, powerflow.Options{EnforceQLimits: true})
		if err != nil {
			t.Fatalf("step %d cold solve: %v", i, err)
		}
		warmTotal += a.Steps[i].Iterations
		coldTotal += cold.Iterations
		if a.Steps[i].Iterations < cold.Iterations {
			strictWin = true
		}
	}
	if warmTotal > coldTotal {
		t.Fatalf("warm-started episode cost %d iterations vs %d cold — warm starts are hurting", warmTotal, coldTotal)
	}
	if !strictWin {
		t.Fatalf("no step converged strictly faster warm than cold (warm %d, cold %d total)", warmTotal, coldTotal)
	}
	t.Logf("warm %d iterations vs cold %d over %d steps", warmTotal, coldTotal, len(steps))
}

// TestEpisodeZeroClone pins the episode fast path's allocation
// discipline: a full day costs zero clones and zero materializations.
func TestEpisodeZeroClone(t *testing.T) {
	n := cases.MustLoad("case57")
	base := solveBase(t, n)
	steps := episodeSteps(n, 24)
	c0, m0 := model.CloneCount(), model.MaterializeCount()
	er, err := Episode(n, base, steps, Options{Pool: contingency.NewSweepPool(contingency.NewBase)})
	if err != nil {
		t.Fatal(err)
	}
	if c, m := model.CloneCount()-c0, model.MaterializeCount()-m0; c != 0 || m != 0 {
		t.Fatalf("episode fast path cloned %d / materialized %d; want zero", c, m)
	}
	if er.Converged != len(steps) {
		t.Fatalf("%d/%d steps converged", er.Converged, len(steps))
	}
}

// TestEpisodeRejectsInvalidIndices: a step that outages a branch out of
// range or out of service, or overrides a generator out of range, fails
// the episode with contingency.ErrInvalidOutage, as Cascade rejects such a
// seed, instead of reporting the base operating point as a converged step.
func TestEpisodeRejectsInvalidIndices(t *testing.T) {
	n := cases.MustLoad("case30")
	base := solveBase(t, n)
	offBranch := n.Clone()
	offBranch.Branches[5].InService = false

	for _, c := range []struct {
		name  string
		step  EpisodeStep
		net   *model.Network // nil: case30 as loaded
		valid bool
	}{
		{"branch out of range", EpisodeStep{BranchesOut: []int{9999}}, nil, false},
		{"negative branch", EpisodeStep{BranchesOut: []int{-1}}, nil, false},
		{"out-of-service branch", EpisodeStep{BranchesOut: []int{5}}, offBranch, false},
		{"generator keys out of range", EpisodeStep{GenP: map[int]float64{-3: 50, 999: 10}}, nil, false},
		{"valid branch and generator", EpisodeStep{BranchesOut: []int{1}, GenP: map[int]float64{1: n.Gens[1].P}}, nil, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, b := n, base
			if c.net != nil {
				net, b = c.net, solveBase(t, c.net)
			}
			steps := []EpisodeStep{{}, c.step}
			er, err := Episode(net, b, steps, Options{})
			if c.valid {
				if err != nil || er.Converged != len(steps) {
					t.Fatalf("Episode = %+v, %v; want %d converged steps", er, err, len(steps))
				}
				return
			}
			if !errors.Is(err, contingency.ErrInvalidOutage) {
				t.Fatalf("Episode = %+v, %v; want ErrInvalidOutage", er, err)
			}
		})
	}
}
