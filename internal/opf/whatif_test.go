package opf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
)

// withBusLoad returns a copy of n whose aggregate demand at external bus
// busID is moved by deltaMW, keeping the bus's power factor: the network
// state a modify_bus_load what-if solves.
func withBusLoad(n *model.Network, busID int, deltaMW float64) *model.Network {
	m := n.Clone()
	bi := m.BusByID(busID)
	p, q := m.BusLoad(bi)
	kept := m.Loads[:0]
	for _, l := range m.Loads {
		if l.Bus != bi {
			kept = append(kept, l)
		}
	}
	m.Loads = append(kept, model.Load{Bus: bi, P: p + deltaMW, Q: (p + deltaMW) * q / p, InService: true})
	return m
}

// TestWhatIfGridCase57 runs the case57 what-if grid the serving path
// meets, cold solves through one Context as the engine runs them: every
// load bus of 10 MW or more plus bus 54, each at −6.5, −3, +1, +4.5, +6
// and +10 MW. Bus 54 at +10 MW is the one infeasible state, and it must
// fail by the stall exit, well before MaxIter, instead of grinding on at
// the complementarity floor; every other state converges.
func TestWhatIfGridCase57(t *testing.T) {
	buses := []int{2, 4, 6, 7, 8, 9, 10, 11, 13, 15, 16, 17, 19, 20, 22, 23, 24, 25, 27, 28, 33, 34, 35, 37, 38,
		39, 40, 41, 44, 45, 46, 48, 49, 51, 52, 53, 56, 57, 54}
	base := cases.MustLoad("case57")
	ctx := NewContext()
	for _, bus := range buses {
		for _, d := range []float64{-6.5, -3, 1, 4.5, 6, 10} {
			sol, err := SolveACOPF(withBusLoad(base, bus, d), Options{Context: ctx})
			infeasible := bus == 54 && d == 10
			switch {
			case !infeasible && err != nil:
				t.Errorf("bus %d %+g MW: %v", bus, d, err)
			case !infeasible && sol.MaxMismatchPU >= 1e-4:
				t.Errorf("bus %d %+g MW: mismatch %g pu", bus, d, sol.MaxMismatchPU)
			case infeasible && err == nil:
				t.Errorf("bus %d %+g MW solved; want the stall exit", bus, d)
			case infeasible:
				if !strings.Contains(err.Error(), "stalled at the complementarity floor") || sol.Iterations >= 150 {
					t.Errorf("bus %d %+g MW failed at iteration %d with %v; want the stall exit before MaxIter", bus, d, sol.Iterations, err)
				}
			}
		}
	}
}

// TestWhatIfGridCase118 runs a slice of the case118 what-if grid the
// acopf_whatif workload draws from, cold solves through one Context as the
// engine runs them: 15 load buses, each at −6.5, +4.5, +6 and +10 MW.
// Buses 60 and 64 at +6 and +10 MW are the known infeasible states and
// must fail, each well before MaxIter; every other state converges within
// exactly 12–18 iterates (bus 83 at +4.5 MW takes the 18).
func TestWhatIfGridCase118(t *testing.T) {
	base := cases.MustLoad("case118")
	ctx := NewContext()
	lo, hi := 150, 0
	for _, bus := range []int{2, 11, 15, 20, 27, 34, 45, 54, 60, 64, 74, 76, 83, 90, 106} {
		for _, d := range []float64{-6.5, 4.5, 6, 10} {
			sol, err := SolveACOPF(withBusLoad(base, bus, d), Options{Context: ctx})
			infeasible := (bus == 60 || bus == 64) && d >= 6
			switch {
			case !infeasible && err != nil:
				t.Errorf("bus %d %+g MW: %v", bus, d, err)
			case !infeasible && sol.MaxMismatchPU >= 1e-4:
				t.Errorf("bus %d %+g MW: mismatch %g pu", bus, d, sol.MaxMismatchPU)
			case !infeasible:
				lo, hi = min(lo, sol.Iterations), max(hi, sol.Iterations)
			case err == nil:
				t.Errorf("bus %d %+g MW solved; want a failure", bus, d)
			case sol.Iterations >= 50:
				t.Errorf("bus %d %+g MW failed at iteration %d; want well before MaxIter", bus, d, sol.Iterations)
			}
		}
	}
	if lo != 12 || hi != 18 {
		t.Errorf("converged solves took %d–%d iterates, want 12–18", lo, hi)
	}
}

// whatIf is one state of a what-if grid: external bus and MW added.
type whatIf struct {
	bus int
	mw  float64
}

// TestWhatIfGridWarm re-solves both what-if grids above warm, each state
// from the pristine case's solution with its multipliers (Options.Start),
// as modify_bus_load does after "Solve IEEE 57/118". Every state that
// converges cold converges warm with no fallback, in at most 9 iterates
// on case57 and 10 on case118 (cold: 9.4 and 13.6 on average), at a cost
// within 1e-7 relative of the cold solve. The known infeasible states
// still fail as the primal-only start fails, byte for byte, after a warm
// attempt whose iterates and exit are pinned here: that attempt is the
// extra cost a failing what-if pays.
func TestWhatIfGridWarm(t *testing.T) {
	const singular = "singular KKT system"
	capped := fmt.Sprintf("iteration limit %d reached", warmMaxIter)
	grids := []struct {
		name     string
		buses    []int
		deltas   []float64
		maxWarm  int
		failWarm map[whatIf]int    // warm iterates before the fallback
		failExit map[whatIf]string // what the warm attempt ends on
	}{
		{
			name: "case57",
			buses: []int{2, 4, 6, 7, 8, 9, 10, 11, 13, 15, 16, 17, 19, 20, 22, 23, 24, 25, 27, 28, 33, 34, 35, 37, 38,
				39, 40, 41, 44, 45, 46, 48, 49, 51, 52, 53, 56, 57, 54},
			deltas:   []float64{-6.5, -3, 1, 4.5, 6, 10},
			maxWarm:  9,
			failWarm: map[whatIf]int{{54, 10}: warmMaxIter},
			failExit: map[whatIf]string{{54, 10}: capped},
		},
		{
			name:     "case118",
			buses:    []int{2, 11, 15, 20, 27, 34, 45, 54, 60, 64, 74, 76, 83, 90, 106},
			deltas:   []float64{-6.5, 4.5, 6, 10},
			maxWarm:  10,
			failWarm: map[whatIf]int{{60, 6}: warmMaxIter, {60, 10}: warmMaxIter, {64, 6}: 10, {64, 10}: 16},
			failExit: map[whatIf]string{{60, 6}: capped, {60, 10}: capped, {64, 6}: singular, {64, 10}: singular},
		},
	}
	for _, g := range grids {
		base := cases.MustLoad(g.name)
		ctx := NewContext()
		pristine, err := SolveACOPF(base, Options{Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		primal := *pristine
		primal.Multipliers = nil
		var coldIt, warmIt, n int
		for _, bus := range g.buses {
			for _, d := range g.deltas {
				s := whatIf{bus, d}
				m := withBusLoad(base, bus, d)
				cold, coldErr := SolveACOPF(m, Options{Context: ctx})
				warm, err := SolveACOPF(m, Options{Context: ctx, Start: pristine})
				fellBack := strings.HasPrefix(warm.ConvergenceMessage, WarmStartFallback)
				if want, infeasible := g.failWarm[s]; infeasible {
					if coldErr == nil || err == nil {
						t.Errorf("%s bus %d %+g MW: cold %v, warm %v; want both to fail", g.name, bus, d, coldErr, err)
						continue
					}
					ref, refErr := SolveACOPF(m, Options{Context: ctx, Start: &primal})
					prefix := fmt.Sprintf("%s after %d iterates (%s", WarmStartFallback, want, g.failExit[s])
					if !strings.HasPrefix(warm.ConvergenceMessage, prefix) || !strings.HasSuffix(warm.ConvergenceMessage, "; "+ref.ConvergenceMessage) {
						t.Errorf("%s bus %d %+g MW: message %q, want %q… ending in the primal-only start's %q",
							g.name, bus, d, warm.ConvergenceMessage, prefix, ref.ConvergenceMessage)
					}
					if refErr == nil || err.Error() != refErr.Error() {
						t.Errorf("%s bus %d %+g MW: warm error %v, want the primal-only start's %v", g.name, bus, d, err, refErr)
					}
					if warm.Multipliers != nil {
						t.Errorf("%s bus %d %+g MW: a failed solve carries multipliers", g.name, bus, d)
					}
					continue
				}
				switch {
				case coldErr != nil:
					t.Errorf("%s bus %d %+g MW: cold: %v", g.name, bus, d, coldErr)
				case err != nil || fellBack:
					t.Errorf("%s bus %d %+g MW: warm: %v (%s)", g.name, bus, d, err, warm.ConvergenceMessage)
				case warm.Iterations > g.maxWarm:
					t.Errorf("%s bus %d %+g MW: %d warm iterates, want ≤ %d", g.name, bus, d, warm.Iterations, g.maxWarm)
				case math.Abs(warm.ObjectiveCost-cold.ObjectiveCost) > 1e-7*cold.ObjectiveCost:
					t.Errorf("%s bus %d %+g MW: warm cost %.6f, cold %.6f", g.name, bus, d, warm.ObjectiveCost, cold.ObjectiveCost)
				}
				coldIt += cold.Iterations
				warmIt += warm.Iterations
				n++
			}
		}
		t.Logf("%s: %d states converge; mean iterates cold %.2f, warm %.2f", g.name, n, float64(coldIt)/float64(n), float64(warmIt)/float64(n))
	}
}

// scaledStart returns a copy of s whose multipliers are all multiplied
// by f.
func scaledStart(s *Solution, f float64) *Solution {
	out := *s
	scale := func(v []float64) []float64 {
		w := make([]float64, len(v))
		for i := range v {
			w[i] = v[i] * f
		}
		return w
	}
	m := s.Multipliers
	out.Multipliers = &Multipliers{Lam: scale(m.Lam), Mu: scale(m.Mu), Z: scale(m.Z)}
	return &out
}

// TestWarmStartFallbackMatchesPrimalStart: a warm start that cannot
// converge returns what the primal-only start returns, every field
// byte for byte once encoded, with the fallback named in front of the
// ConvergenceMessage. Multipliers scaled by 1e9 run the warm attempt to
// its warmMaxIter cap (at 1e6 it still converges, in 13–19 iterates); a
// NaN λ fails the first factorization.
func TestWarmStartFallbackMatchesPrimalStart(t *testing.T) {
	nan := func(s *Solution) *Solution {
		out := scaledStart(s, 1)
		out.Multipliers.Lam[0] = math.NaN()
		return out
	}
	for _, tc := range []struct {
		name   string
		bus    int
		poison func(*Solution) *Solution
		exit   string
	}{
		{"case57", 11, func(s *Solution) *Solution { return scaledStart(s, 1e9) }, "after 20 iterates (iteration limit 20 reached"},
		{"case118", 11, nan, "after 0 iterates (singular KKT system: sparse: matrix is singular: pivot NaN"},
	} {
		base := cases.MustLoad(tc.name)
		ctx := NewContext()
		pristine, err := SolveACOPF(base, Options{Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		primal := *pristine
		primal.Multipliers = nil
		m := withBusLoad(base, tc.bus, 4.5)
		want, err := SolveACOPF(m, Options{Context: ctx, Start: &primal})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveACOPF(m, Options{Context: ctx, Start: tc.poison(pristine)})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		prefix := WarmStartFallback + " " + tc.exit
		if !strings.HasPrefix(got.ConvergenceMessage, prefix) || !strings.HasSuffix(got.ConvergenceMessage, "; "+want.ConvergenceMessage) {
			t.Errorf("%s: message %q, want %q… ending in %q", tc.name, got.ConvergenceMessage, prefix, want.ConvergenceMessage)
		}
		got.ConvergenceMessage = want.ConvergenceMessage
		gb, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: the fallback's solution differs from the primal-only start's", tc.name)
		}
	}
}

// TestWarmStartIgnoresMismatchedMultipliers: multipliers not sized for
// the network solved — a rated branch out of service, or λ, μ or z cut
// short, as a damaged spill file could hold — seed nothing. The solve is
// the primal-only start's, message included.
func TestWarmStartIgnoresMismatchedMultipliers(t *testing.T) {
	base := cases.MustLoad("case30")
	start, err := SolveACOPF(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	primal := *start
	primal.Multipliers = nil
	out := base.Clone()
	for k := range out.Branches {
		if out.Branches[k].RateMVA > 0 && k > 0 {
			out.Branches[k].InService = false
			break
		}
	}
	short := func(pick func(*Multipliers) *[]float64) *Solution {
		s := scaledStart(start, 1)
		v := pick(s.Multipliers)
		*v = (*v)[:len(*v)-1]
		return s
	}
	for _, tc := range []struct {
		name  string
		net   *model.Network
		start *Solution
	}{
		{"branch out", out, start},
		{"short λ", base, short(func(m *Multipliers) *[]float64 { return &m.Lam })},
		{"short μ", base, short(func(m *Multipliers) *[]float64 { return &m.Mu })},
		{"short z", base, short(func(m *Multipliers) *[]float64 { return &m.Z })},
	} {
		m := withBusLoad(tc.net, 7, 4.5)
		want, wantErr := SolveACOPF(m, Options{Start: &primal})
		got, err := SolveACOPF(m, Options{Start: tc.start})
		if (err == nil) != (wantErr == nil) || got.Iterations != want.Iterations ||
			got.ObjectiveCost != want.ObjectiveCost || got.ConvergenceMessage != want.ConvergenceMessage {
			t.Errorf("%s: %d iterates, cost %v, %q; want the primal-only start's %d, %v, %q",
				tc.name, got.Iterations, got.ObjectiveCost, got.ConvergenceMessage,
				want.Iterations, want.ObjectiveCost, want.ConvergenceMessage)
		}
	}
}

// TestWarmStartReadsStartOnly: concurrent solves warm-started from one
// Solution, converging and falling back, leave every slice of it as it
// was. Under -race a write to Start would also fail as a data race.
func TestWarmStartReadsStartOnly(t *testing.T) {
	base := cases.MustLoad("case57")
	start, err := SolveACOPF(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := json.Marshal(start)
	if err != nil {
		t.Fatal(err)
	}
	nan := scaledStart(start, 1)
	nan.Multipliers.Lam[0] = math.NaN()
	var wg sync.WaitGroup
	for _, s := range []*Solution{start, start, nan} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := SolveACOPF(withBusLoad(base, 8, 4.5), Options{Start: s}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	after, err := json.Marshal(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a warm-started solve wrote to its Start")
	}
	if !math.IsNaN(nan.Multipliers.Lam[0]) {
		t.Error("the fallback solve wrote to its Start")
	}
}
