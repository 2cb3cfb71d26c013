package opf

import (
	"strings"
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
