package opf

import (
	"bytes"
	"encoding/json"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
)

// contextEdit is one change between two solves through a Context: edit
// mutates a clone of the case, and rebuild says whether it touches a field
// the compiled problem was built from (compileKey) and so must rebuild it.
type contextEdit struct {
	name    string
	rebuild bool
	edit    func(n *model.Network)
}

// contextEdits lists a change of every compileKey field, then value-only
// changes. Branch edits act on branch k, an in-service branch whose outage
// keeps the network connected, rated where the case rates any (case14
// rates none: its rating edit gives k a rating instead, and the value-only
// rating edit is left out); unit edits act on unit g, an in-service unit
// off the slack bus, and move it to bus, an end of k away from it.
func contextEdits(t *testing.T, n *model.Network) []contextEdit {
	k, g := -1, -1
	for i, br := range n.Branches {
		if !br.InService || (k >= 0 && br.RateMVA <= 0) {
			continue
		}
		m := n.Clone()
		m.Branches[i].InService = false
		if m.IsConnected() {
			k = i
			if br.RateMVA > 0 {
				break
			}
		}
	}
	for i, gen := range n.Gens {
		if gen.InService && gen.Bus != n.SlackBus() {
			g = i
			break
		}
	}
	if k < 0 || g < 0 {
		t.Fatalf("%s: no non-islanding branch (%d) or non-slack unit (%d)", n.Name, k, g)
	}
	bus := n.Branches[k].To
	if bus == n.Gens[g].Bus {
		bus = n.Branches[k].From
	}
	rated := n.Branches[k].RateMVA > 0
	var edits []contextEdit
	if rated {
		edits = append(edits,
			contextEdit{"rating to 0", true, func(n *model.Network) { n.Branches[k].RateMVA = 0 }},
			contextEdit{"rating kept > 0", false, func(n *model.Network) { n.Branches[k].RateMVA *= 0.9 }})
	} else {
		edits = append(edits, contextEdit{"rating from 0", true, func(n *model.Network) { n.Branches[k].RateMVA = 100 }})
	}
	return append(edits, []contextEdit{
		{"branch R", true, func(n *model.Network) { n.Branches[k].R = n.Branches[k].R*1.1 + 1e-4 }},
		{"branch X", true, func(n *model.Network) { n.Branches[k].X *= 1.05 }},
		{"branch B", true, func(n *model.Network) { n.Branches[k].B += 0.01 }},
		{"branch tap", true, func(n *model.Network) { n.Branches[k].Tap = 1.01 }},
		{"branch shift", true, func(n *model.Network) { n.Branches[k].Shift += 0.01 }},
		{"branch status", true, func(n *model.Network) { n.Branches[k].InService = false }},
		{"bus GS", true, func(n *model.Network) { n.Buses[bus].GS += 1 }},
		{"bus BS", true, func(n *model.Network) { n.Buses[bus].BS += 5 }},
		{"unit status", true, func(n *model.Network) { n.Gens[g].InService = false }},
		{"unit bus", true, func(n *model.Network) { n.Gens[g].Bus = bus }},
		{"slack bus", true, func(n *model.Network) {
			n.Buses[n.SlackBus()].Type = model.PV
			n.Buses[n.Gens[g].Bus].Type = model.Slack
		}},
		{"load", false, func(n *model.Network) { n.Loads[0].P += 2 }},
		{"cost", false, func(n *model.Network) { n.Gens[g].Cost.C1 *= 1.01 }},
		{"unit limits", false, func(n *model.Network) {
			n.Gens[g].PMax *= 0.98
			n.Gens[g].QMin -= 1
		}},
		{"voltage band", false, func(n *model.Network) {
			n.Buses[bus].VMin += 0.005
			n.Buses[bus].VMax -= 0.005
		}},
	}...)
}

// solveJSON solves n and returns the solution's JSON and the error text.
func solveJSON(t *testing.T, n *model.Network, opts Options) ([]byte, string) {
	t.Helper()
	sol, err := SolveACOPF(n, opts)
	body, jerr := json.Marshal(sol)
	if jerr != nil {
		t.Fatal(jerr)
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return body, msg
}

// TestContextProblemFollowsInputs: one Context solves each case14–300
// network and then, in turn, a copy with one field changed, cold and
// warm-started from the base solution. Every solve through the Context is
// byte-identical (JSON, error text) to a solve on a fresh Context. A
// change to a field the problem is compiled from rebuilds the cached
// problem; a value-only change reuses it, Ybus included. A value-invalid
// network reaching a reused problem still fails with Validate's error.
func TestContextProblemFollowsInputs(t *testing.T) {
	for _, name := range cases.Names() {
		base := cases.MustLoad(name)
		cold, err := SolveACOPF(base, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mode := range []struct {
			name  string
			start *Solution
		}{{"cold", nil}, {"warm", cold}} {
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				ctx := NewContext()
				solve := func(what string, n *model.Network) {
					got, gotErr := solveJSON(t, n, Options{Context: ctx, Start: mode.start})
					want, wantErr := solveJSON(t, n, Options{Context: NewContext(), Start: mode.start})
					if gotErr != wantErr || !bytes.Equal(got, want) {
						t.Fatalf("%s: through the shared Context (err %q) differs from a fresh Context (err %q)", what, gotErr, wantErr)
					}
				}
				for _, e := range contextEdits(t, base) {
					solve("base before "+e.name, base)
					prob, y := ctx.prob, ctx.prob.y
					m := base.Clone()
					e.edit(m)
					solve(e.name, m)
					if reused := ctx.prob == prob && ctx.prob.y == y; reused == e.rebuild {
						t.Fatalf("%s: cached problem reused %v, want %v", e.name, reused, !e.rebuild)
					}
				}

				prob := ctx.prob
				m := base.Clone()
				m.Buses[1].VMax = m.Buses[1].VMin - 0.01
				want := m.Validate()
				if want == nil {
					t.Fatal("VMax < VMin passes Validate")
				}
				if _, err := SolveACOPF(m, Options{Context: ctx, Start: mode.start}); err == nil || err.Error() != want.Error() {
					t.Fatalf("VMax < VMin through a reused problem: error %v, want %v", err, want)
				}
				if ctx.prob != prob {
					t.Fatal("a value-invalid network replaced the cached problem")
				}
			})
		}
	}
}

// TestPooledResolveAllocs pins the allocations of a warm case118 what-if
// (+2 MW at bus 60) re-solved through a Context that already holds its
// structure: the problem, its Ybus, KKT pattern and scratch are all
// reused, so what is left is the interior point's start and result and
// the Solution itself. Compiling the problem again costs about 1,070 more.
func TestPooledResolveAllocs(t *testing.T) {
	n := cases.MustLoad("case118")
	ctx := NewContext()
	cold, err := SolveACOPF(n, Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	m := withBusLoad(n, 60, 2)
	if _, err := SolveACOPF(m, Options{Context: ctx, Start: cold}); err != nil {
		t.Fatal(err)
	}
	prob, y := ctx.prob, ctx.prob.y
	var failed error
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SolveACOPF(m, Options{Context: ctx, Start: cold}); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if ctx.prob != prob || ctx.prob.y != y {
		t.Fatal("the re-solve rebuilt the cached problem or its Ybus")
	}
	if want := 28.0; allocs != want {
		t.Fatalf("pooled warm case118 re-solve allocates %v times, want exactly %v", allocs, want)
	}
}
