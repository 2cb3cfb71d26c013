package main

import (
	"context"
	"fmt"
	"math"
)

// exactCounts are the per-layer counts that must read the same in every
// run of one program: they count work, not time.
var exactCounts = []string{"sparse.factor_nnz", "opf.iterations_per_solve", "contingency.outages_per_sweep"}

// selfcheck is the A/A test: two sets of n end-to-end runs of every
// workload (each run on its own seed) plus one traced run per workload and
// set, all from this one binary. For every metric and workload it prints
// both medians, both quartile spreads and the bound, and it fails when the
// medians of the two sets differ by more than the bound — which is what
// would make the benchmark call an unchanged program a regression. The
// sets run one after the other, as two measurement sessions would.
func (e *env) selfcheck(ctx context.Context, n int, seed int64, seconds int) error {
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	var counts [2]map[key]float64
	nextSeed := seed
	for s := range sets {
		sets[s], counts[s] = map[key][]float64{}, map[key]float64{}
		for i := 0; i < n; i++ {
			for _, w := range workloads() {
				res, err := e.run(ctx, w, runOpts{seed: nextSeed, seconds: seconds})
				if err == nil {
					err = res.err()
				}
				if err != nil {
					return err
				}
				for m, v := range res.Metrics {
					sets[s][key{w.Name, m}] = append(sets[s][key{w.Name, m}], v)
				}
				fmt.Printf("set %c run %d/%d %-13s seed=%d done\n", 'A'+s, i+1, n, w.Name, nextSeed)
			}
			nextSeed++
		}
		for _, w := range workloads() {
			res, err := e.run(ctx, w, runOpts{seed: nextSeed, seconds: seconds, trace: true})
			if err == nil {
				err = res.err()
			}
			if err != nil {
				return err
			}
			for _, m := range append([]string{"trace.overhead_pct"}, exactCounts...) {
				counts[s][key{w.Name, m}] = res.Metrics[m]
			}
			fmt.Printf("set %c traced   %-13s seed=%d done\n", 'A'+s, w.Name, nextSeed)
		}
		nextSeed++
	}

	var bad []string
	fmt.Printf("\n%-13s %-22s %-5s %12s %12s %8s %9s %9s %7s\n",
		"workload", "metric", "unit", "median A", "median B", "B vs A", "spread A", "spread B", "bound")
	var p50Bound float64
	for _, m := range e.spec.EndToEnd {
		if m.Name == "ask_p50_ms" {
			p50Bound = m.Bound
		}
	}
	for _, w := range workloads() {
		for _, m := range e.spec.EndToEnd {
			a, b := sets[0][key{w.Name, m.Name}], sets[1][key{w.Name, m.Name}]
			ma, mb := median(a), median(b)
			diff := div(mb-ma, ma)
			verdict := ""
			if math.Abs(diff) > m.Bound {
				verdict = "  DISAGREE"
				bad = append(bad, w.Name+"/"+m.Name)
			}
			fmt.Printf("%-13s %-22s %-5s %12.4f %12.4f %+7.1f%% %8.1f%% %8.1f%% %6.0f%%%s\n",
				w.Name, m.Name, m.Unit, ma, mb, 100*diff, 100*spreadShare(a), 100*spreadShare(b), 100*m.Bound, verdict)
		}
		for s := range counts {
			if ov := counts[s][key{w.Name, "trace.overhead_pct"}]; math.Abs(ov) > 100*p50Bound {
				bad = append(bad, fmt.Sprintf("%s/trace.overhead_pct=%.1f%% (set %c)", w.Name, ov, 'A'+s))
			}
		}
		fmt.Printf("%-13s %-22s %-5s %12.2f %12.2f\n", w.Name, "trace.overhead_pct", "%",
			counts[0][key{w.Name, "trace.overhead_pct"}], counts[1][key{w.Name, "trace.overhead_pct"}])
		for _, c := range exactCounts {
			a, b := counts[0][key{w.Name, c}], counts[1][key{w.Name, c}]
			fmt.Printf("%-13s %-22s %-5s %12.0f %12.0f\n", w.Name, c, "count", a, b)
			if a != b {
				bad = append(bad, w.Name+"/"+c+" does not repeat")
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: two sets of the same program disagree on %v", bad)
	}
	fmt.Println("selfcheck: every pairing agrees within its bound")
	return nil
}
