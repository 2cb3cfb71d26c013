// Package gridmind_test holds the benchmark harness: one testing.B target
// per paper table/figure (E1-E5 in DESIGN.md) plus the ablation benches
// (A2-A4; A1, sparse vs dense, was settled in PR 1 and its dense LU deleted)
// for the design decisions the architecture section calls out.
//
// Figure/table benches run scaled-down configurations so -bench=. stays
// tractable; cmd/gridmind-bench regenerates the full paper-scale tables.
// The numeric-core solver benchmarks tracked in BENCH_numeric.json live in
// bench_numeric_test.go.
package gridmind_test

import (
	"context"
	"testing"

	"gridmind"
	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/experiments"
	"gridmind/internal/llm"
	"gridmind/internal/opf"
	"gridmind/internal/powerflow"
	"gridmind/internal/sensitivity"
)

// --- E1: Figure 3 (left) — success rate by model ---

func BenchmarkFigure3SuccessRate(b *testing.B) {
	cfg := experiments.Config{Models: []string{llm.ModelGPTO3}, Runs: 1, Case: "case30"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3Success(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].SuccessRate != 100 {
			b.Fatalf("success rate %v", rows[0].SuccessRate)
		}
	}
}

// --- E2: Figure 3 (middle) — execution time distribution ---

func BenchmarkFigure3TimeDistribution(b *testing.B) {
	cfg := experiments.Config{Models: []string{llm.ModelGPTO4Mini}, Runs: 3, Case: "case30"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3Distribution(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: Figure 3 (right) — execution time vs case complexity ---

func BenchmarkFigure3CaseScaling(b *testing.B) {
	cfg := experiments.Config{
		Models: []string{llm.ModelGPT5Mini}, Runs: 1,
		Cases: []string{"case14", "case30", "case57"},
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3Scaling(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: Table 1 — CA agent performance ---

func BenchmarkTable1ContingencyAgent(b *testing.B) {
	cfg := experiments.Config{Models: []string{llm.ModelGPTO3}, Runs: 1, Case: "case30"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows[0].CriticalLines) == 0 {
			b.Fatal("no critical lines")
		}
	}
}

// --- E5: Table 2 — case inventory ---

func BenchmarkTable2CaseInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("wrong row count")
		}
	}
}

// --- A2: contingency cache on repeated analyses (§3.4) ---

func BenchmarkAblationContingencyCacheCold(b *testing.B) {
	benchN1Sweep(b, "case30", contingency.Options{})
}

func BenchmarkAblationContingencyCacheWarm(b *testing.B) {
	n := cases.MustLoad("case30")
	base, _ := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	cache := contingency.NewCache()
	opts := contingency.Options{Cache: cache, CacheKeyPrefix: "state0"}
	if _, err := contingency.Analyze(n, base, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := contingency.Analyze(n, base, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A3: parallel contingency sweep scaling (§3.2.2) ---

func BenchmarkAblationParallelSweep1(b *testing.B) {
	benchN1Sweep(b, "case118", contingency.Options{Workers: 1})
}

func BenchmarkAblationParallelSweep4(b *testing.B) {
	benchN1Sweep(b, "case118", contingency.Options{Workers: 4})
}

// --- A5: LODF+1Q screening vs full AC contingency sweep ---

func BenchmarkAblationScreeningOff(b *testing.B) {
	benchN1Sweep(b, "case118", contingency.Options{})
}

func BenchmarkAblationScreeningOn(b *testing.B) {
	benchN1Sweep(b, "case118", contingency.Options{DCScreen: true})
}

// --- Extension workloads: sensitivity (SCOPF is in bench_numeric_test.go) ---

func BenchmarkSensitivityProbes(b *testing.B) {
	n := cases.MustLoad("case30")
	base, err := opf.SolveACOPF(n, opf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sensitivity.LoadImpacts(n, base, []int{7, 21, 30}, 2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A4: warm vs flat start post-outage power flow (§3.1) ---

func benchOutageStart(b *testing.B, warm bool) {
	n := cases.MustLoad("case118")
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		b.Fatal(err)
	}
	opts := contingency.Options{NoWarmStart: !warm}
	branches := n.InServiceBranches()[:20]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range branches {
			contingency.AnalyzeOne(n, base, k, opts)
		}
	}
}

func BenchmarkAblationWarmStart(b *testing.B) { benchOutageStart(b, true) }
func BenchmarkAblationFlatStart(b *testing.B) { benchOutageStart(b, false) }

// --- End-to-end conversational turn through the public API ---

func BenchmarkConversationalTurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gm := gridmind.New(gridmind.Options{Model: gridmind.ModelGPTO3, Salt: int64(i)})
		ex, err := gm.Ask(context.Background(), "Solve IEEE 30")
		if err != nil {
			b.Fatal(err)
		}
		if !ex.Success {
			b.Fatal("turn failed")
		}
	}
}
