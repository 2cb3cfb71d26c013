// Command e2e is GridMind's end-to-end benchmark: it builds
// cmd/gridmind-server, starts real server processes on loopback, replays
// seeded closed-loop operator scripts against them, checks every reply, and
// reports what an operator sees (ask latency, throughput, server CPU and
// memory, set-up time). With --trace 1 it reports where the time goes,
// layer by layer, measured from outside the program. See README.md.
//
// The benchmark contract's form measures one workload and ends with one
// JSON line:
//
//	go run -C bench/e2e gridmind/bench/e2e --workload n1_study --seed 1 --seconds 23 --trace 0
//
// Without --workload every workload runs in turn, end to end and then
// traced; --selfcheck N compares two sets of N such runs (A/A).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: it is the one
// place that names the metrics, their units and their regression bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to measure; empty runs all of them, end to end and traced")
		seed         = flag.Int64("seed", 1, "script seed: the same seed gives the same asks")
		seconds      = flag.Int("seconds", 0, "how long one run measures (0 = run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics instead of the end-to-end ones")
		selfcheck    = flag.Int("selfcheck", 0, "A/A check: two sets of N runs of every workload, compared against the bounds")
	)
	flag.Parse()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := realMain(ctx, *workloadName, *seed, *seconds, *trace != 0, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		cancel()
		os.Exit(1)
	}
}

func realMain(ctx context.Context, workloadName string, seed int64, seconds int, trace bool, selfcheck int) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	gold, err := loadGoldens()
	if err != nil {
		return err
	}
	e := &env{root: root, gold: gold, spec: spec}
	if e.serverBin, err = goBuild(ctx, root, root, "./cmd/gridmind-server", "gridmind-server"); err != nil {
		return err
	}
	if trace || workloadName == "" {
		if e.probeBin, err = goBuild(ctx, root, filepath.Join(root, "bench", "e2e"), "./probe", "e2e-probe"); err != nil {
			return err
		}
	}
	// From here on everything runs on one CPU.
	if cpu, err := pinToOneCPU(); err != nil {
		fmt.Println("not bound to one CPU:", err)
	} else {
		fmt.Println("bound to CPU", cpu)
	}

	if selfcheck > 0 {
		return e.selfcheck(ctx, selfcheck, seed, seconds)
	}
	// report runs one workload and prints it for a reader.
	report := func(w *workload, traced bool) (*runResult, error) {
		res, err := e.run(ctx, w, runOpts{seed: seed, seconds: seconds, trace: traced})
		if err != nil {
			return nil, err
		}
		e.printReport(res, traced)
		return res, res.err()
	}
	if workloadName != "" {
		w := workloadByName(workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		res, err := report(w, trace)
		if err != nil {
			return err
		}
		return e.printContractLine(res, trace)
	}
	// Every workload, end to end and then traced.
	for _, traced := range []bool{false, true} {
		for _, w := range workloads() {
			if _, err := report(w, traced); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *env) specsFor(traced bool) []metricSpec {
	if traced {
		return e.spec.PerLayer
	}
	return e.spec.EndToEnd
}

// printReport prints a run for a reader: every metric by name with its
// unit, the counts behind them and the script's identity.
func (e *env) printReport(r *runResult, traced bool) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("== %s  seed=%d  %s  1 closed-loop client, server GOMAXPROCS=1\n", r.Workload, r.Seed, kind)
	fmt.Printf("   script_sha256=%s\n", r.ScriptSHA)
	fmt.Printf("   rounds=%d asks_attempted=%d (= latency samples) asks_failed=%d\n", len(r.PerRound), r.Attempted, r.Failed)
	for why, n := range r.FailReasons {
		fmt.Printf("   failed %dx: %s\n", n, why)
	}
	for _, m := range e.specsFor(traced) {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Printf("   %-46s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	if !traced {
		for i, pr := range r.PerRound {
			fmt.Printf("   round %d as read: %6.2f s  host x%.3f (cpu x%.3f)  %9.2f asks/s  cpu %8.3f ms/ask  p50 %9.3f ms  p90 %9.3f ms\n",
				i+1, pr.WallS, pr.Host, pr.HostCPU, pr.AsksPerS, pr.CPUMSPerAsk, pr.P50, pr.P90)
		}
		for _, c := range r.Classes {
			fmt.Printf("   class %-12s share %5.1f%%  p50 %10.3f ms\n", c.Class, c.Share*100, c.P50)
		}
		for _, risk := range boundaryRisk(r.Classes) {
			fmt.Printf("   WARNING class boundary: %s\n", risk)
		}
	}
}

// printContractLine prints the benchmark contract's result: one JSON
// object, the last line of standard output.
func (e *env) printContractLine(r *runResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var missing []string
	for _, m := range e.specsFor(traced) {
		v, ok := r.Metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("BENCHMARK.json names metrics the run did not produce: %v", missing)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
