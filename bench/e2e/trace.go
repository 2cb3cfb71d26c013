package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// span is one traced interval: a client-observed operation of the traced
// round, or (from the probe) a call into a layer with the tool calls of a
// replayed ask as children. A layer's self time is its span minus the part
// its children cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Name   string `json:"name"`
	AskID  string `json:"ask_id,omitempty"`
	Start  int64  `json:"start_ns"` // Unix time
	End    int64  `json:"end_ns"`
}

// probeInput is what the probe replays in process: the warm-up and the
// traced round.
type probeInput struct {
	Gateway bool `json:"gateway"`
	Warmup  []op `json:"warmup"`
	Round   []op `json:"round"`
}

type probeOutput struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

// tracedTools are the tools the per-layer report follows call by call.
var tracedTools = []string{
	"solve_acopf_case", "modify_bus_load", "run_n1_contingency_analysis",
	"analyze_specific_contingency", "get_network_status", "analyze_load_sensitivity",
}

func scrape(base string) (promSamples, time.Duration, error) {
	t0 := time.Now()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, 0, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("scrape: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return parseProm(string(data)), d, nil
}

// runProbe runs the layer probe on the given asks.
func (e *env) runProbe(ctx context.Context, in probeInput) (*probeOutput, error) {
	stdin, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, e.probeBin)
	cmd.Env = append(os.Environ(), oneCPU) // as the server runs
	cmd.Stdin = bytes.NewReader(stdin)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	var out probeOutput
	if err := json.Unmarshal(stdout, &out); err != nil {
		return nil, fmt.Errorf("layer probe output: %w", err)
	}
	return &out, nil
}

// runTraced is the per-layer run. End-to-end numbers never come from it:
// it measures a few untraced rounds only to have something to compare the
// traced round with, then one round with a span per operation and a
// /metrics scrape on either side, then timed session and scrape calls, and
// last the in-process probe.
func (e *env) runTraced(ctx context.Context, w *workload, o runOpts) (*runResult, error) {
	live, _, err := e.coldStart(ctx, w)
	if err != nil {
		return nil, err
	}
	defer live.stop()
	if _, err := e.measureRound(w, live, w.roundOps(o.seed, -1)); err != nil {
		return nil, err
	}
	var rounds []*roundResult
	var untracedP50 []float64
	// The probe needs its share of the run's time: a quarter goes to the
	// untraced rounds, and two of them are enough to compare with.
	budget := time.Duration(o.seconds) * time.Second / 4
	for start := time.Now(); !roundsDone(len(rounds), 2, time.Since(start), budget); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rr, err := e.measureRound(w, live, w.roundOps(o.seed, len(rounds)))
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rr)
		_, _, lat := rr.asks()
		untracedP50 = append(untracedP50, percentile(lat, 50))
	}

	before, _, err := scrape(live.srv.base)
	if err != nil {
		return nil, err
	}
	tracedOps := w.roundOps(o.seed, len(rounds))
	traced, err := e.measureRound(w, live, tracedOps)
	if err != nil {
		return nil, err
	}
	after, _, err := scrape(live.srv.base)
	if err != nil {
		return nil, err
	}
	rounds = append(rounds, traced)

	layers := map[string]float64{}
	attempted, _, lat := traced.asks()
	asks := float64(attempted)
	var sumLat float64
	for _, l := range lat {
		sumLat += l
	}
	tracedP50 := percentile(lat, 50)
	layers["trace.overhead_pct"] = 100 * div(tracedP50-median(untracedP50), median(untracedP50))

	// Scrape deltas over the traced round: counts where the work happens.
	var acopfCalls float64
	for _, tool := range tracedTools {
		label := `{tool="` + tool + `"}`
		calls := after.delta(before, "gridmind_tool_invocations_total"+label)
		layers["tools.calls."+tool] = calls
		layers["tools.mean_ms."+tool] = 1000 * div(
			after.delta(before, "gridmind_tool_latency_seconds_sum"+label),
			after.delta(before, "gridmind_tool_latency_seconds_count"+label))
		if tool == "solve_acopf_case" || tool == "modify_bus_load" {
			acopfCalls += calls
		}
	}
	busyMS := 1000 * after.deltaPrefix(before, "gridmind_tool_latency_seconds_sum")
	layers["tools.busy_ms_per_ask"] = div(busyMS, asks)
	layers["tools.errors"] = after.deltaPrefix(before, "gridmind_tool_errors_total")
	layers["opf.recovery_ratio"] = div(after.deltaPrefix(before, "gridmind_agent_recoveries_total"), acopfCalls)
	for name, keys := range map[string][2]string{
		"engine.struct_hit_ratio":     {`gridmind_engine_struct_lookups_total{result="hit"}`, `gridmind_engine_struct_lookups_total{result="miss"}`},
		"engine.opf_ctx_reuse_ratio":  {`gridmind_engine_opf_context_checkouts_total{result="reuse"}`, `gridmind_engine_opf_context_checkouts_total{result="create"}`},
		"engine.sweep_pool_hit_ratio": {`gridmind_engine_sweep_pool_lookups_total{result="hit"}`, `gridmind_engine_sweep_pool_lookups_total{result="new"}`},
		"engine.base_pf_hit_ratio":    {`gridmind_engine_base_pf_total{result="hit"}`, `gridmind_engine_base_pf_total{result="solve"}`},
	} {
		layers[name] = ratio(after.delta(before, keys[0]), after.delta(before, keys[1]))
	}
	layers["engine.ybus_builds"] = after["gridmind_engine_ybus_builds_total"]
	layers["gateway.attempts_per_ask"] = div(after.deltaPrefix(before, "gridmind_gateway_deployment_attempts_total"), asks)
	layers["gateway.retries"] = after.deltaPrefix(before, "gridmind_gateway_retries_total")
	layers["server.above_tools_ms_per_ask"] = div(sumLat-busyMS, asks)
	layers["server.wall_over_tool_busy"] = div(sumLat, busyMS)
	var rejected float64
	for _, r := range rounds {
		for i := range r.samples {
			if r.samples[i].Rejected {
				rejected++
			}
		}
	}
	layers["server.asks_rejected"] = rejected

	// Timed calls of the server's own surface, on an otherwise idle server.
	extra := newClient(live.srv.base, e.gold)
	defer extra.close()
	var createMS, deleteMS, scrapeMS []float64
	for i := 0; i < 21; i++ {
		c, d := extra.do(op{Kind: opCreate}), extra.do(op{Kind: opDelete})
		if c.Fail != "" || d.Fail != "" {
			return nil, fmt.Errorf("%s: timed session calls failed: %s %s", w.Name, c.Fail, d.Fail)
		}
		createMS, deleteMS = append(createMS, c.ms()), append(deleteMS, d.ms())
	}
	layers["server.session_create_ms"] = median(createMS)
	layers["server.session_delete_ms"] = median(deleteMS)
	var last promSamples
	for i := 0; i < 5; i++ {
		s, d, err := scrape(live.srv.base)
		if err != nil {
			return nil, err
		}
		last = s
		scrapeMS = append(scrapeMS, float64(d)/float64(time.Millisecond))
	}
	layers["obs.scrape_ms"] = median(scrapeMS)
	layers["obs.series"] = float64(len(last))

	// The in-process numbers, on the same round.
	probe, err := e.runProbe(ctx, probeInput{Gateway: w.Gateway, Warmup: w.Warmup(), Round: tracedOps})
	if err != nil {
		return nil, err
	}
	for k, v := range probe.Metrics {
		layers[k] = v
	}
	layers["server.http_overhead_ms"] = tracedP50 - probe.Metrics["replay.ask_p50_ms"]

	if err := e.writeTrace(w, traced, probe.Spans); err != nil {
		return nil, err
	}
	res := summarize(w, o.seed, rounds)
	res.Metrics = layers
	return res, nil
}

// writeTrace writes the traced round's client spans and the probe's spans
// to bench/e2e/out/trace-<workload>.json.
func (e *env) writeTrace(w *workload, traced *roundResult, probeSpans []span) error {
	spans := make([]span, 0, len(traced.samples)+len(probeSpans))
	for i := range traced.samples {
		s := &traced.samples[i]
		name := "client." + string(s.Kind)
		if s.Class != "" {
			name += "." + s.Class
		}
		spans = append(spans, span{
			ID: i + 1, Name: name, AskID: fmt.Sprintf("op-%d", i),
			Start: s.Start.UnixNano(), End: s.End.UnixNano(),
		})
	}
	// Probe ids start after the client's, parents move with them.
	shift := len(spans)
	for _, s := range probeSpans {
		s.ID += shift
		if s.Parent != 0 {
			s.Parent += shift
		}
		spans = append(spans, s)
	}
	dir := filepath.Join(e.root, "bench", "e2e", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": w.Name, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+w.Name+".json"), data, 0o644)
}
