package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// guarded names the benchmarks of bench_numeric_test.go the regression gate
// runs, each exactly as recorded in BENCH_numeric.json. The test file
// documents what each one measures.
var guarded = []string{
	"BenchmarkN1SweepCase57",
	"BenchmarkN1SweepCase300",
	"BenchmarkGenSweepCase57",
	"BenchmarkN2ScreenCase57",
	"BenchmarkACOPFCase57",
	"BenchmarkACOPFCase118",
	"BenchmarkACOPFCase300",
	"BenchmarkACOPFPooledCase118",
	"BenchmarkSessionNetworkSnapshot",
	"BenchmarkConcurrentAsk8",
	"BenchmarkCascadeCase57",
	"BenchmarkMCReliability",
	"BenchmarkRegistryHotPath",
	"BenchmarkSCOPFCase57",
	"BenchmarkFleetSweepCase57",
}

// guardTolerance is the fractional ns/op and allocs/op regression allowed
// against the baseline. The wall-time arm assumes CI hardware no slower
// than the baseline machine; allocation counts are machine-independent.
const guardTolerance = 0.30

// benchResult is one benchmark measurement, in BENCH_numeric.json's shape.
type benchResult struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// guardRow is one measured-vs-baseline comparison: a row of the failure
// table and an entry of the fresh-results artifact.
type guardRow struct {
	Name           string      `json:"name"`
	After          benchResult `json:"after"`
	BaselineNsOp   float64     `json:"baseline_ns_op"`
	BaselineAllocs float64     `json:"baseline_allocs_op"`
	Failed         bool        `json:"failed"`
}

// runBenchGuard runs the guarded benchmarks with `go test` in the directory
// of baselinePath (where bench_numeric_test.go lives), at -cpu 1 like every
// recorded baseline, three times each, and compares the best run of each
// against the baseline. Fresh measurements go to outPath when it is
// non-empty, so CI can archive them; any regression prints the full
// before/after table.
func runBenchGuard(baselinePath, outPath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var file struct {
		Benchmarks []struct {
			Name  string      `json:"name"`
			After benchResult `json:"after"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	base := make(map[string]benchResult, len(file.Benchmarks))
	for _, b := range file.Benchmarks {
		base[b.Name] = b.After
	}

	var out bytes.Buffer
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "^("+strings.Join(guarded, "|")+")$",
		"-benchmem", "-cpu", "1", "-count", "3", ".")
	cmd.Dir = filepath.Dir(baselinePath)
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", strings.Join(cmd.Args, " "), err)
	}

	rows, failures, err := compareBench(guarded, base, parseBench(out.String()))
	if err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	for _, r := range rows {
		fmt.Printf("benchguard %s: %.0f ns/op (baseline %.0f), %.0f allocs/op (baseline %.0f), tolerance %.0f%%\n",
			r.Name, r.After.NsOp, r.BaselineNsOp, r.After.AllocsOp, r.BaselineAllocs, 100*guardTolerance)
	}
	if outPath != "" {
		if err := writeFreshBench(outPath, baselinePath, rows); err != nil {
			return fmt.Errorf("write fresh bench results: %w", err)
		}
		fmt.Printf("benchguard: fresh measurements written to %s\n", outPath)
	}
	if len(failures) > 0 {
		printGuardTable(rows)
		return errors.New(strings.Join(failures, "; "))
	}
	fmt.Println("benchguard: OK")
	return nil
}

// parseBench reads `go test -bench -benchmem` output and returns, per
// benchmark, the minimum of each metric over its runs (best of -count, to
// shed scheduler noise). The GOMAXPROCS suffix ("-2") is stripped from
// names; lines that are not benchmark results are skipped.
func parseBench(out string) map[string]benchResult {
	best := make(map[string]benchResult)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue
		}
		// A benchmark function name cannot contain '-', so the first one
		// starts the GOMAXPROCS suffix.
		name, _, _ := strings.Cut(f[0], "-")
		r := benchResult{NsOp: -1, BOp: -1, AllocsOp: -1}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				r.NsOp = v
			case "B/op":
				r.BOp = v
			case "allocs/op":
				r.AllocsOp = v
			}
		}
		if r.NsOp < 0 || r.BOp < 0 || r.AllocsOp < 0 {
			continue
		}
		if prev, ok := best[name]; ok {
			r.NsOp = min(r.NsOp, prev.NsOp)
			r.BOp = min(r.BOp, prev.BOp)
			r.AllocsOp = min(r.AllocsOp, prev.AllocsOp)
		}
		best[name] = r
	}
	return best
}

// compareBench checks each named benchmark's measurement against its
// baseline: ns/op and allocs/op may each regress by at most guardTolerance,
// and a zero-alloc baseline is pinned exactly (any fraction of zero is
// zero, so one allocation on a 0-alloc hot path is the whole regression).
// It returns one row per name and a message per regression; a name with no
// baseline or no measurement is an error.
func compareBench(names []string, base, measured map[string]benchResult) ([]guardRow, []string, error) {
	rows := make([]guardRow, 0, len(names))
	var failures []string
	for _, name := range names {
		ref, ok := base[name]
		if !ok {
			return nil, nil, fmt.Errorf("no %s baseline", name)
		}
		got, ok := measured[name]
		if !ok {
			return nil, nil, fmt.Errorf("%s is guarded but missing from the go test output", name)
		}
		row := guardRow{Name: name, After: got, BaselineNsOp: ref.NsOp, BaselineAllocs: ref.AllocsOp}
		if got.NsOp > ref.NsOp*(1+guardTolerance) {
			row.Failed = true
			failures = append(failures, fmt.Sprintf("%s ns/op regressed: %.0f > %.0f (+%.0f%% allowed)", name, got.NsOp, ref.NsOp, 100*guardTolerance))
		}
		if (ref.AllocsOp == 0 && got.AllocsOp > 0) || (ref.AllocsOp > 0 && got.AllocsOp > ref.AllocsOp*(1+guardTolerance)) {
			row.Failed = true
			failures = append(failures, fmt.Sprintf("%s allocs/op regressed: %.0f > %.0f (+%.0f%% allowed)", name, got.AllocsOp, ref.AllocsOp, 100*guardTolerance))
		}
		rows = append(rows, row)
	}
	return rows, failures, nil
}

// printGuardTable renders the full before/after comparison so a failing CI
// run shows every guarded metric in context, not just the one that
// tripped.
func printGuardTable(rows []guardRow) {
	pct := func(meas, ref float64) string {
		if ref <= 0 {
			return "   n/a"
		}
		return fmt.Sprintf("%+5.1f%%", 100*(meas-ref)/ref)
	}
	fmt.Printf("\nbenchguard comparison (tolerance +%.0f%%):\n", 100*guardTolerance)
	fmt.Printf("%-32s %14s %14s %7s %12s %12s %7s  %s\n",
		"benchmark", "base ns/op", "meas ns/op", "Δ", "base allocs", "meas allocs", "Δ", "verdict")
	for _, r := range rows {
		verdict := "ok"
		if r.Failed {
			verdict = "FAIL"
		}
		fmt.Printf("%-32s %14.0f %14.0f %7s %12.0f %12.0f %7s  %s\n",
			r.Name, r.BaselineNsOp, r.After.NsOp, pct(r.After.NsOp, r.BaselineNsOp),
			r.BaselineAllocs, r.After.AllocsOp, pct(r.After.AllocsOp, r.BaselineAllocs), verdict)
	}
}

// writeFreshBench dumps the run's measurements in a BENCH_numeric.json-like
// shape for the CI artifact.
func writeFreshBench(path, baselinePath string, rows []guardRow) error {
	data, err := json.MarshalIndent(struct {
		Description string     `json:"description"`
		Baseline    string     `json:"baseline"`
		Tolerance   float64    `json:"tolerance"`
		Benchmarks  []guardRow `json:"benchmarks"`
	}{
		Description: "benchguard fresh measurements (best of 3 go test -cpu 1 runs)",
		Baseline:    baselinePath,
		Tolerance:   guardTolerance,
		Benchmarks:  rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
