// Command probe produces the benchmark's in-process layer numbers: timed
// calls into each layer's public functions and a replay of one client's
// asks through gridmind.New(...).Ask, whose return values say how an ask
// splits into tool time and everything above the tools. It reads the asks
// as JSON on standard input and writes metrics and spans as JSON on
// standard output. The harness (the parent directory) runs it for
// --trace 1; it is a program of its own so that the end-to-end run, which
// needs nothing but the server's HTTP surface, does not stop compiling when
// an internal API moves.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"gridmind"
	"gridmind/internal/agents"
	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/llm"
	"gridmind/internal/model"
	"gridmind/internal/opf"
	"gridmind/internal/powerflow"
	"gridmind/internal/session"
	"gridmind/internal/sparse"
)

// input mirrors the harness's probeInput.
type input struct {
	Gateway bool `json:"gateway"`
	Warmup  []op `json:"warmup"`
	Round   []op `json:"round"`
}

type op struct {
	Kind string `json:"kind"`
	Slot int    `json:"slot"`
	Ask  *struct {
		Query string `json:"query"`
	} `json:"ask"`
}

// span mirrors the harness's span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	AskID  string `json:"ask_id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type output struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

type prober struct {
	out    output
	nextID int
}

func (p *prober) span(parent int, name, askID string, start, end time.Time) int {
	p.nextID++
	p.out.Spans = append(p.out.Spans, span{
		ID: p.nextID, Parent: parent, Name: name, AskID: askID,
		Start: start.UnixNano(), End: end.UnixNano(),
	})
	return p.nextID
}

// timed calls fn reps times under one span per call and returns the median
// duration.
func (p *prober) timed(name string, reps int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		t1 := time.Now()
		p.span(0, name, "", t0, t1)
		ds = append(ds, t1.Sub(t0))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func main() {
	p := &prober{out: output{Metrics: map[string]float64{}}}
	if err := p.run(); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(p.out); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

func (p *prober) run() error {
	var in input
	if err := json.NewDecoder(os.Stdin).Decode(&in); err != nil {
		return fmt.Errorf("read input: %w", err)
	}
	steps := []func() error{p.opf, p.recovery, p.sweeps, p.numerics, p.sessions, p.planner, func() error { return p.replay(in) }}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// opf times the interior-point ACOPF on the pristine cases the workloads
// solve, with one pooled context per case as the engine hands out.
func (p *prober) opf() error {
	m := p.out.Metrics
	var compiles int
	for _, c := range []struct {
		name string
		reps int
	}{{"case118", 3}, {"case57", 5}} {
		n, err := gridmind.LoadCase(c.name)
		if err != nil {
			return err
		}
		kkt := opf.NewContext()
		solve := func() (*opf.Solution, error) { return opf.SolveACOPF(n, opf.Options{Context: kkt}) }
		if _, err := solve(); err != nil { // compiles the KKT pattern
			return fmt.Errorf("opf %s: %w", c.name, err)
		}
		var iters int
		d, err := p.timed("opf.SolveACOPF."+c.name, c.reps, func() error {
			sol, err := solve()
			if err == nil {
				iters = sol.Iterations
			}
			return err
		})
		if err != nil {
			return err
		}
		m["opf.solve_ms."+c.name] = ms(d)
		if c.name == "case118" {
			m["opf.iterations_per_solve"] = float64(iters)
		}
		compiles += kkt.Compiles()
	}
	m["opf.context_compiles"] = float64(compiles)
	return nil
}

// recovery times the one what-if the timed workloads leave out: pristine
// case118 with bus 64 up 8 MW, where the primary solver fails twice and
// solveWithRecovery ends in the dispatch fallback. It goes through Ask
// because the recovery ladder lives in the tool, not in opf.
func (p *prober) recovery() error {
	gm := gridmind.New(gridmind.Options{Engine: gridmind.NewEngine()})
	ctx := context.Background()
	if _, err := gm.Ask(ctx, "Solve IEEE 118"); err != nil {
		return err
	}
	t0 := time.Now()
	ex, err := gm.Ask(ctx, "Increase the load at bus 64 by 8 MW")
	if err != nil {
		return err
	}
	p.span(0, "tools.modify_bus_load.recovery", "", t0, time.Now())
	for _, t := range ex.Turns {
		for _, s := range t.Steps {
			if s.Tool == "modify_bus_load" {
				p.out.Metrics["opf.recovery_ms"] = ms(s.ToolLat)
			}
		}
	}
	return nil
}

// sweeps times the N-1 sweep the way the run_n1 tool runs it for a fresh
// session: engine-shared pristine network, artifacts, base power flow and
// worker pool, and an empty contingency cache.
func (p *prober) sweeps() error {
	m := p.out.Metrics
	eng := engine.New()
	for _, name := range []string{"case300", "case57"} {
		n, err := eng.Pristine(name)
		if err != nil {
			return err
		}
		base, err := eng.BasePF(name, n)
		if err != nil {
			return err
		}
		a := eng.Artifacts(n)
		var rs *contingency.ResultSet
		sweep := func() error {
			rs, err = contingency.Analyze(n, base, contingency.Options{
				Cache: contingency.NewCache(), CacheKeyPrefix: name,
				BaseYbus: a.Ybus(), Topology: a.Topology(), Reorder: a.Ordering(), Pool: eng.SweepPool(name),
			})
			return err
		}
		if err := sweep(); err != nil { // builds the worker contexts
			return fmt.Errorf("sweep %s: %w", name, err)
		}
		d, err := p.timed("contingency.Analyze."+name, 3, sweep)
		if err != nil {
			return err
		}
		m["contingency.sweep_ms."+name] = ms(d)
		if name == "case300" {
			outages := float64(len(rs.Outages))
			m["contingency.outages_per_sweep"] = outages
			m["contingency.us_per_outage"] = us(d) / outages
			m["contingency.screened_ratio"] = float64(rs.Screened) / outages
		}
	}
	return nil
}

// numerics times the layers under the solvers on case300: admittance
// build, engine artifacts from cold, Newton power flow, and the sparse LU
// on a matrix with the polar power-flow Jacobian's pattern.
func (p *prober) numerics() error {
	m := p.out.Metrics
	n, err := gridmind.LoadCase("case300")
	if err != nil {
		return err
	}
	var y *model.Ybus
	d, _ := p.timed("model.BuildYbus.case300", 9, func() error { y = model.BuildYbus(n); return nil })
	m["model.ybus_build_us.case300"] = us(d)

	d, _ = p.timed("engine.Artifacts.case300", 3, func() error {
		a := engine.New().Artifacts(n)
		a.Ybus()
		a.Topology()
		return nil
	})
	m["engine.artifacts_cold_ms"] = ms(d)

	var iters int
	d, err = p.timed("powerflow.Solve.case300", 5, func() error {
		// From a flat start: the case file stores its own solution, from
		// which Newton has nothing left to do.
		res, err := powerflow.Solve(n, powerflow.Options{FlatStart: true, EnforceQLimits: true})
		if err == nil {
			iters = res.Iterations
		}
		return err
	})
	if err != nil {
		return err
	}
	m["powerflow.solve_ms.case300"] = ms(d)
	m["powerflow.iterations"] = float64(iters)

	// [H N; J L] at flat start: H = L = -B, N = G, J = -G on Ybus's
	// pattern, with the diagonal blocks made dominant so that the frozen
	// pivots of Refactorize stay valid.
	nb := y.N
	var ri, ci []int
	var val []float64
	for k, nz := range y.NZ {
		i, j := nz[0], nz[1]
		g, b := real(y.NZv[k]), imag(y.NZv[k])
		if i == j {
			b += 1
		}
		ri = append(ri, i, i, i+nb, i+nb)
		ci = append(ci, j, j+nb, j, j+nb)
		val = append(val, -b, g, -g, -b)
	}
	a, slot := sparse.CompilePattern(2*nb, 2*nb, ri, ci)
	for k, s := range slot {
		a.Values()[s] = val[k]
	}
	var lu *sparse.LU
	d, err = p.timed("sparse.Factorize", 9, func() error {
		lu, err = sparse.Factorize(a, sparse.Options{})
		return err
	})
	if err != nil {
		return err
	}
	m["sparse.factorize_us"] = us(d)
	m["sparse.factor_nnz"] = float64(lu.NNZ())
	d, err = p.timed("sparse.Refactorize", 25, func() error { return lu.Refactorize(a) })
	if err != nil {
		return err
	}
	m["sparse.refactorize_us"] = us(d)
	rhs, x, work := make([]float64, 2*nb), make([]float64, 2*nb), make([]float64, 2*nb)
	for i := range rhs {
		rhs[i] = 1
	}
	d, err = p.timed("sparse.SolveInto", 51, func() error { return lu.SolveInto(x, rhs, work) })
	if err != nil {
		return err
	}
	m["sparse.solve_us"] = us(d)
	return nil
}

// sessions times session.Context on a context carrying a gateway_mix
// study's diff log: Apply, the memoized Network snapshot, and the
// Persist/Restore pair a spill to disk would pay.
func (p *prober) sessions() error {
	m := p.out.Metrics
	eng := engine.New()
	sc := session.NewWithEngine(time.Now, eng)
	if _, err := sc.LoadCase("case57"); err != nil {
		return err
	}
	mods := []session.Modification{
		{Kind: session.ModSetLoad, BusID: 9, PMW: 28.5, QMVAr: 11.2},
		{Kind: session.ModSetLoad, BusID: 20, PMW: 41.0, QMVAr: 9.8},
		{Kind: session.ModSetLoad, BusID: 35, PMW: 52.1, QMVAr: 12.4},
		{Kind: session.ModSetLoad, BusID: 44, PMW: 33.9, QMVAr: 4.1},
	}
	i := 0
	d, err := p.timed("session.Apply", len(mods), func() error { i++; return sc.Apply(mods[i-1]) })
	if err != nil {
		return err
	}
	m["session.apply_us"] = us(d)

	const hits = 200000
	t0 := time.Now()
	for k := 0; k < hits; k++ {
		if _, err := sc.Network(); err != nil {
			return err
		}
	}
	t1 := time.Now()
	p.span(0, "session.Network.hits", "", t0, t1)
	m["session.network_hit_ns"] = float64(t1.Sub(t0)) / hits

	var buf bytes.Buffer
	d, err = p.timed("session.Persist", 9, func() error { buf.Reset(); return sc.Persist(&buf) })
	if err != nil {
		return err
	}
	m["session.persist_ms"] = ms(d)
	d, err = p.timed("session.Restore", 9, func() error {
		_, err := session.RestoreWithEngine(bytes.NewReader(buf.Bytes()), time.Now, eng)
		return err
	})
	if err != nil {
		return err
	}
	m["session.restore_ms"] = ms(d)
	return nil
}

// planner times the two pieces every ask pays before any tool runs: the
// planner's decomposition and one simulated-LLM completion.
func (p *prober) planner() error {
	m := p.out.Metrics
	const query = "What is the current network status?"
	d, _ := p.timed("agents.Plan", 1001, func() error { agents.Plan(query); return nil })
	m["agents.plan_us"] = us(d)

	profile, _ := llm.ProfileByName(llm.ModelGPTO3)
	sim := llm.NewSim(profile)
	req := &llm.Request{
		Model: profile.Name,
		Messages: []llm.Message{
			{Role: llm.RoleSystem, Content: agents.ACOPFSystemPrompt},
			{Role: llm.RoleUser, Content: query},
		},
		Tools: []llm.ToolDef{{Name: "solve_acopf_case"}, {Name: "modify_bus_load"}, {Name: "get_network_status"}},
	}
	ctx := context.Background()
	d, err := p.timed("llm.Complete", 1001, func() error { _, err := sim.Complete(ctx, req); return err })
	if err != nil {
		return err
	}
	m["llm.complete_us"] = us(d)
	return nil
}

// replay runs one client's asks in process, the way the server's session
// manager would: one GridMind per session slot on a shared engine, behind
// the same gateway when the workload uses one. Ask's Exchange says what the
// tools took; the rest of the ask is the agent layer's own time.
func (p *prober) replay(in input) error {
	eng := gridmind.NewEngine()
	var client gridmind.Client
	if in.Gateway {
		var deps []gridmind.GatewayDeployment
		for i, d := range []struct{ name, model string }{{"primary", gridmind.ModelGPTO3}, {"backup", gridmind.ModelGPT5Mini}} {
			c, err := gridmind.NewSimClient(d.model)
			if err != nil {
				return err
			}
			deps = append(deps, gridmind.GatewayDeployment{Name: d.name, Client: c, Weight: 1, Priority: i})
		}
		gw, err := gridmind.NewGateway(deps, gridmind.GatewayConfig{Name: "probe", Strategy: "round-robin", Metrics: eng.Metrics()})
		if err != nil {
			return err
		}
		defer gw.Close()
		client = gw
	}
	slots := map[int]*gridmind.GridMind{}
	ctx := context.Background()
	var asks, turns, toolCalls, completions int
	var selfMS, wallMS []float64
	do := func(o op, measured bool, askID string) error {
		switch o.Kind {
		case "create":
			slots[o.Slot] = gridmind.New(gridmind.Options{Engine: eng, Client: client})
		case "delete":
			delete(slots, o.Slot)
		case "ask":
			gm := slots[o.Slot]
			if gm == nil || o.Ask == nil {
				return fmt.Errorf("replay: ask without a session in slot %d", o.Slot)
			}
			t0 := time.Now()
			ex, err := gm.Ask(ctx, o.Ask.Query)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("replay %q: %w", o.Ask.Query, err)
			}
			if !measured {
				return nil
			}
			id := p.span(0, "gridmind.Ask", askID, t0, t1)
			var busy time.Duration
			at := t0
			for _, t := range ex.Turns {
				turns++
				toolCalls += t.ToolCalls
				completions += len(t.Steps)
				for _, s := range t.Steps {
					if s.Kind != "tool_call" {
						continue
					}
					// Steps carry durations, not clock times: lay the
					// tool spans end to end from the ask's start.
					p.span(id, "tools."+s.Tool, askID, at, at.Add(s.ToolLat))
					at = at.Add(s.ToolLat)
					busy += s.ToolLat
				}
			}
			asks++
			wallMS = append(wallMS, ms(t1.Sub(t0)))
			selfMS = append(selfMS, ms(t1.Sub(t0)-busy))
		}
		return nil
	}
	for _, o := range in.Warmup {
		if err := do(o, false, ""); err != nil {
			return err
		}
	}
	for i, o := range in.Round {
		if err := do(o, true, fmt.Sprintf("replay-%d", i)); err != nil {
			return err
		}
	}
	if asks == 0 {
		return fmt.Errorf("replay: no asks in the round")
	}
	m := p.out.Metrics
	m["agents.self_ms_per_ask"] = mean(selfMS)
	m["agents.turns_per_ask"] = float64(turns) / float64(asks)
	m["agents.tool_calls_per_ask"] = float64(toolCalls) / float64(asks)
	m["llm.completions_per_ask"] = float64(completions) / float64(asks)
	sort.Float64s(wallMS)
	m["replay.ask_p50_ms"] = wallMS[(len(wallMS)-1)/2]
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
