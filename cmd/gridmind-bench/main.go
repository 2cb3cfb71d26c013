// Command gridmind-bench regenerates the paper's evaluation artifacts:
// every panel of Figure 3 and Tables 1-2, at the paper's configuration
// (six models, five runs, case118) or a custom scope.
//
// Usage:
//
//	gridmind-bench                         # everything, paper configuration
//	gridmind-bench -experiment table1      # one experiment
//	gridmind-bench -runs 3 -case case30    # scaled-down scope
//
// It doubles as the CI performance-regression gate for the numeric core:
//
//	gridmind-bench -benchguard BENCH_numeric.json
//
// runs the 14 guarded benchmarks of bench_numeric_test.go (listed in
// benchguard.go) with `go test -cpu 1 -count 3` beside the baseline file
// and exits nonzero when the best run's ns/op or allocs/op (a
// machine-independent signal) regresses more than 30% against the
// checked-in baseline, printing the full before/after table on failure.
// -benchguard-out archives the fresh measurements as JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"gridmind/internal/experiments"
)

func main() {
	exp := flag.String("experiment", "all",
		"which experiment: fig3-success, fig3-dist, fig3-scaling, table1, table2, reliability, all; fleet-scaling and fleet-compare run only when named explicitly")
	runs := flag.Int("runs", 5, "runs per (model, case) cell")
	caseName := flag.String("case", "case118", "fixed case for fig3-success/fig3-dist/table1")
	models := flag.String("models", "", "comma-separated model subset (default: all six)")
	guard := flag.String("benchguard", "", "path to BENCH_numeric.json: run the guarded benchmarks of bench_numeric_test.go (listed in benchguard.go) in its directory with go test -cpu 1 -count 3 and fail on a >30% ns/op or allocs/op regression against the recorded baselines")
	guardOut := flag.String("benchguard-out", "", "path to write the fresh -benchguard measurements as JSON (CI uploads it as an artifact)")
	fleetWorkers := flag.String("workers", "", "comma-separated worker base URLs for -experiment fleet-compare (real `gridmind-server -worker` processes)")
	fleetSizes := flag.String("fleet-sizes", "1,2,4", "comma-separated worker counts for -experiment fleet-scaling")
	fleetCases := flag.String("fleet-cases", "case300,case3000", "comma-separated cases for -experiment fleet-scaling")
	artifactDir := flag.String("artifact-dir", "", "persistent artifact store mounted on fleet-scaling workers (empty = every worker compiles cold)")
	flag.Parse()

	if *guard != "" {
		if err := runBenchGuard(*guard, *guardOut); err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{Runs: *runs, Case: *caseName}
	if *models != "" {
		cfg.Models = strings.Split(*models, ",")
	}
	ctx := context.Background()

	// The fleet experiments never ride along with "all": fleet-scaling
	// sweeps case3000 (minutes of solves) and fleet-compare needs external
	// worker processes, so both run only when explicitly named.
	switch *exp {
	case "fleet-scaling":
		fcfg := experiments.FleetConfig{ArtifactDir: *artifactDir}
		for _, c := range strings.Split(*fleetCases, ",") {
			if c = strings.TrimSpace(c); c != "" {
				fcfg.Cases = append(fcfg.Cases, c)
			}
		}
		for _, s := range strings.Split(*fleetSizes, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "fleet-scaling: bad -fleet-sizes entry %q\n", s)
				os.Exit(2)
			}
			fcfg.WorkerCounts = append(fcfg.WorkerCounts, n)
		}
		pts, err := experiments.FleetScaling(ctx, fcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet-scaling: %v\n", err)
			os.Exit(1)
		}
		experiments.FormatFleet(os.Stdout, pts)
		return
	case "fleet-compare":
		if *fleetWorkers == "" {
			fmt.Fprintln(os.Stderr, "fleet-compare: -workers is required (comma-separated worker URLs)")
			os.Exit(2)
		}
		res, err := experiments.FleetCompare(ctx, strings.Split(*fleetWorkers, ","), *caseName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet-compare: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("fleet-compare: %s on %d workers: %d outages (%d screened) in %.2fs, exact match with single-process sweep\n",
			res.Case, res.Workers, res.Outages, res.Screened, res.Seconds)
		return
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table2", func() error {
		rows, err := experiments.Table2()
		if err != nil {
			return err
		}
		experiments.FormatTable2(os.Stdout, rows)
		return nil
	})
	run("fig3-success", func() error {
		rows, err := experiments.Figure3Success(ctx, cfg)
		if err != nil {
			return err
		}
		experiments.FormatSuccess(os.Stdout, rows)
		return nil
	})
	run("fig3-dist", func() error {
		rows, err := experiments.Figure3Distribution(ctx, cfg)
		if err != nil {
			return err
		}
		experiments.FormatDistribution(os.Stdout, rows)
		return nil
	})
	run("fig3-scaling", func() error {
		scaleCfg := cfg
		if *exp == "all" && *runs > 3 {
			// The full 6×5 sweep with 5 runs is ~150 agent turns; 3 runs
			// match the paper's qualitative panel at a third of the cost.
			scaleCfg.Runs = 3
		}
		pts, err := experiments.Figure3Scaling(ctx, scaleCfg)
		if err != nil {
			return err
		}
		experiments.FormatScaling(os.Stdout, pts)
		return nil
	})
	run("table1", func() error {
		rows, err := experiments.Table1(ctx, cfg)
		if err != nil {
			return err
		}
		experiments.FormatTable1(os.Stdout, rows)
		return nil
	})
	run("reliability", func() error {
		relCfg := cfg
		if *exp == "all" {
			// Mixed sessions are heavy (each runs several solves); two
			// sessions per model suffice for the trend table.
			relCfg.Runs = 2
		}
		rows, err := experiments.Reliability(ctx, relCfg)
		if err != nil {
			return err
		}
		experiments.FormatReliability(os.Stdout, rows)
		return nil
	})
}
