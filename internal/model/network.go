package model

import (
	"fmt"
	"math"
	"sync/atomic"
)

// cloneCount and materializeCount tally every deep Clone and view
// Materialize process-wide. They exist for the zero-clone regression tests:
// a sweep that promises "no network copies on the hot path" asserts the
// counters did not move, which is exact where allocation budgets are noisy.
var cloneCount, materializeCount atomic.Int64

// CloneCount returns the process-wide number of Network.Clone calls.
func CloneCount() int64 { return cloneCount.Load() }

// MaterializeCount returns the process-wide number of OutageView.Materialize
// calls.
func MaterializeCount() int64 { return materializeCount.Load() }

// Clone returns a deep copy of the network. Solvers and agents clone before
// applying modifications so the session diff log can always be replayed
// against the pristine case.
func (n *Network) Clone() *Network {
	cloneCount.Add(1)
	c := &Network{Name: n.Name, BaseMVA: n.BaseMVA}
	c.Buses = append([]Bus(nil), n.Buses...)
	c.Loads = append([]Load(nil), n.Loads...)
	c.Gens = append([]Generator(nil), n.Gens...)
	c.Branches = append([]Branch(nil), n.Branches...)
	return c
}

// NumBuses returns the bus count.
func (n *Network) NumBuses() int { return len(n.Buses) }

// NumLines returns the count of in-service or out-of-service plain AC lines.
func (n *Network) NumLines() int {
	c := 0
	for _, b := range n.Branches {
		if !b.IsTransformer {
			c++
		}
	}
	return c
}

// NumTransformers returns the transformer branch count.
func (n *Network) NumTransformers() int {
	return len(n.Branches) - n.NumLines()
}

// SlackBus returns the internal index of the slack bus, or -1 if absent.
func (n *Network) SlackBus() int {
	for i, b := range n.Buses {
		if b.Type == Slack {
			return i
		}
	}
	return -1
}

// BusByID maps an external bus number to its internal index, or -1.
func (n *Network) BusByID(id int) int {
	for i, b := range n.Buses {
		if b.ID == id {
			return i
		}
	}
	return -1
}

// TotalLoad sums in-service demand in MW and MVAr.
func (n *Network) TotalLoad() (p, q float64) {
	for _, l := range n.Loads {
		if l.InService {
			p += l.P
			q += l.Q
		}
	}
	return p, q
}

// TotalGenCapacity sums PMax over in-service generators, in MW.
func (n *Network) TotalGenCapacity() float64 {
	var c float64
	for _, g := range n.Gens {
		if g.InService {
			c += g.PMax
		}
	}
	return c
}

// BusLoad returns aggregate in-service demand at internal bus index i, in
// MW and MVAr.
func (n *Network) BusLoad(i int) (p, q float64) {
	for _, l := range n.Loads {
		if l.InService && l.Bus == i {
			p += l.P
			q += l.Q
		}
	}
	return p, q
}

// GensAtBus returns the indices of in-service generators at bus i.
func (n *Network) GensAtBus(i int) []int {
	var out []int
	for g, gen := range n.Gens {
		if gen.InService && gen.Bus == i {
			out = append(out, g)
		}
	}
	return out
}

// InServiceBranches returns the indices of energized branches.
func (n *Network) InServiceBranches() []int {
	var out []int
	for i, b := range n.Branches {
		if b.InService {
			out = append(out, i)
		}
	}
	return out
}

// ConnectedComponents labels buses by connected component considering only
// in-service branches. It returns the component id per bus and the number
// of components.
func (n *Network) ConnectedComponents() (comp []int, count int) {
	nb := len(n.Buses)
	comp = make([]int, nb)
	for i := range comp {
		comp[i] = -1
	}
	adj := make([][]int, nb)
	for _, b := range n.Branches {
		if !b.InService {
			continue
		}
		adj[b.From] = append(adj[b.From], b.To)
		adj[b.To] = append(adj[b.To], b.From)
	}
	var stack []int
	for s := 0; s < nb; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = count
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if comp[w] == -1 {
					comp[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether all buses belong to one energized island.
func (n *Network) IsConnected() bool {
	_, c := n.ConnectedComponents()
	return c <= 1
}

// Validate checks structural and numerical consistency of the case. It is
// the data-integrity gate the paper's agents run before any solve: the
// structural half (validateStructure), then ValidateValues.
func (n *Network) Validate() error {
	if err := n.validateStructure(); err != nil {
		return err
	}
	return n.ValidateValues()
}

// validateStructure checks what a compiled solver problem is built from:
// the base, bus IDs and the one slack bus, generator placements, branch
// endpoints and impedances, and that the in-service branches join one
// island.
func (n *Network) validateStructure() error {
	if n.BaseMVA <= 0 {
		return fmt.Errorf("model: %s: BaseMVA must be positive, got %v", n.Name, n.BaseMVA)
	}
	if len(n.Buses) == 0 {
		return fmt.Errorf("model: %s: no buses", n.Name)
	}
	slack := 0
	seen := make(map[int]bool, len(n.Buses))
	for _, b := range n.Buses {
		if seen[b.ID] {
			return fmt.Errorf("model: %s: duplicate bus ID %d", n.Name, b.ID)
		}
		seen[b.ID] = true
		if b.Type == Slack {
			slack++
		}
	}
	if slack != 1 {
		return fmt.Errorf("model: %s: need exactly one slack bus, got %d", n.Name, slack)
	}
	for i, g := range n.Gens {
		if g.Bus < 0 || g.Bus >= len(n.Buses) {
			return fmt.Errorf("model: %s: generator %d references bus index %d out of range", n.Name, i, g.Bus)
		}
	}
	for i, b := range n.Branches {
		if b.From < 0 || b.From >= len(n.Buses) || b.To < 0 || b.To >= len(n.Buses) {
			return fmt.Errorf("model: %s: branch %d endpoint out of range", n.Name, i)
		}
		if b.From == b.To {
			return fmt.Errorf("model: %s: branch %d is a self loop at bus index %d", n.Name, i, b.From)
		}
		if b.X == 0 && b.R == 0 {
			return fmt.Errorf("model: %s: branch %d has zero impedance", n.Name, i)
		}
		if math.IsNaN(b.R) || math.IsNaN(b.X) || math.IsNaN(b.B) {
			return fmt.Errorf("model: %s: branch %d has NaN parameters", n.Name, i)
		}
	}
	if !n.IsConnected() {
		return fmt.Errorf("model: %s: network is not a single connected island", n.Name)
	}
	return nil
}

// ValidateValues is Validate's value half: bus voltage bands and initial
// magnitudes, load placements and generator limits. A solver that reuses
// a problem compiled from a structure Validate passed re-checks only
// these. It allocates nothing.
func (n *Network) ValidateValues() error {
	for _, b := range n.Buses {
		if b.VMin <= 0 || b.VMax < b.VMin {
			return fmt.Errorf("model: %s: bus %d has invalid voltage band [%v, %v]", n.Name, b.ID, b.VMin, b.VMax)
		}
		if b.Vm <= 0 {
			return fmt.Errorf("model: %s: bus %d has non-positive initial Vm %v", n.Name, b.ID, b.Vm)
		}
	}
	for i, l := range n.Loads {
		if l.Bus < 0 || l.Bus >= len(n.Buses) {
			return fmt.Errorf("model: %s: load %d references bus index %d out of range", n.Name, i, l.Bus)
		}
	}
	for i, g := range n.Gens {
		if g.PMax < g.PMin {
			return fmt.Errorf("model: %s: generator %d has PMax %v < PMin %v", n.Name, i, g.PMax, g.PMin)
		}
		if g.QMax < g.QMin {
			return fmt.Errorf("model: %s: generator %d has QMax %v < QMin %v", n.Name, i, g.QMax, g.QMin)
		}
	}
	return nil
}

// Summary describes the case in the shape of the paper's Table 2 row.
type Summary struct {
	Name         string `json:"case"`
	Buses        int    `json:"bus"`
	Gens         int    `json:"gen"`
	Loads        int    `json:"load"`
	ACLines      int    `json:"ac_line"`
	Transformers int    `json:"transformers"`
}

// Summarize returns component counts for reporting.
func (n *Network) Summarize() Summary {
	return Summary{
		Name:         n.Name,
		Buses:        len(n.Buses),
		Gens:         len(n.Gens),
		Loads:        len(n.Loads),
		ACLines:      n.NumLines(),
		Transformers: n.NumTransformers(),
	}
}
