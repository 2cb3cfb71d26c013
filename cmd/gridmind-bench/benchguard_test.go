package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// countThree is verbatim `go test -bench ... -benchmem -count 3` output on a
// 2-vCPU runner (hence the -2 suffixes).
const countThree = `goos: linux
goarch: amd64
pkg: gridmind
cpu: Intel(R) Xeon(R) Processor
BenchmarkGenSweepCase57-2           	    1120	   1022189 ns/op	  291664 B/op	     609 allocs/op
BenchmarkGenSweepCase57-2           	    1268	    980311 ns/op	  291669 B/op	     609 allocs/op
BenchmarkGenSweepCase57-2           	    1306	   1195050 ns/op	  291667 B/op	     609 allocs/op
BenchmarkSessionNetworkSnapshot-2   	53664366	        21.58 ns/op	       0 B/op	       0 allocs/op
BenchmarkSessionNetworkSnapshot-2   	49301835	        23.35 ns/op	       0 B/op	       0 allocs/op
BenchmarkSessionNetworkSnapshot-2   	53097891	        20.46 ns/op	       0 B/op	       0 allocs/op
BenchmarkRegistryHotPath-2          	40334256	        33.79 ns/op	       0 B/op	       0 allocs/op
BenchmarkRegistryHotPath-2          	31545415	        35.28 ns/op	       0 B/op	       0 allocs/op
BenchmarkRegistryHotPath-2          	30172269	        33.23 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	gridmind	14.113s
`

func TestParseBench(t *testing.T) {
	for _, tc := range []struct {
		name string
		out  string
		want map[string]benchResult
	}{
		{
			name: "count 3 with GOMAXPROCS suffix",
			out:  countThree,
			want: map[string]benchResult{
				"BenchmarkGenSweepCase57":         {NsOp: 980311, BOp: 291664, AllocsOp: 609},
				"BenchmarkSessionNetworkSnapshot": {NsOp: 20.46, BOp: 0, AllocsOp: 0},
				"BenchmarkRegistryHotPath":        {NsOp: 33.23, BOp: 0, AllocsOp: 0},
			},
		},
		{
			// -cpu 1 prints no suffix; each metric's minimum is taken on its
			// own, even when it comes from a different run.
			name: "min of each metric across runs",
			out: "BenchmarkACOPFCase57 \t 50 \t 2300000 ns/op \t 900 B/op \t 12 allocs/op\n" +
				"BenchmarkACOPFCase57 \t 50 \t 2100000 ns/op \t 950 B/op \t 13 allocs/op\n" +
				"BenchmarkACOPFCase57 \t 50 \t 2200000 ns/op \t 920 B/op \t 11 allocs/op\n",
			want: map[string]benchResult{
				"BenchmarkACOPFCase57": {NsOp: 2100000, BOp: 900, AllocsOp: 11},
			},
		},
		{
			name: "non-result lines are skipped",
			out: "BenchmarkCascadeCase57\n" +
				"    bench_numeric_test.go:12: log line\n" +
				"--- FAIL: BenchmarkMCReliability\n" +
				"BenchmarkNoMem-2 \t 10 \t 5 ns/op\n" +
				"BenchmarkCascadeCase57-2 \t 3 \t 417000000 ns/op \t 9590164 B/op \t 36318 allocs/op\n" +
				"FAIL\n",
			want: map[string]benchResult{
				"BenchmarkCascadeCase57": {NsOp: 417000000, BOp: 9590164, AllocsOp: 36318},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := parseBench(tc.out); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parseBench:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

func TestCompareBench(t *testing.T) {
	const x = "BenchmarkX"
	base := map[string]benchResult{x: {NsOp: 1000, AllocsOp: 100}}
	zeroBase := map[string]benchResult{x: {NsOp: 20, AllocsOp: 0}}
	for _, tc := range []struct {
		name       string
		base       map[string]benchResult
		measured   map[string]benchResult
		wantFailed bool
		wantErr    bool
	}{
		{name: "ns +29% passes", base: base, measured: map[string]benchResult{x: {NsOp: 1290, AllocsOp: 100}}},
		{name: "ns +31% fails", base: base, measured: map[string]benchResult{x: {NsOp: 1310, AllocsOp: 100}}, wantFailed: true},
		{name: "allocs +29% passes", base: base, measured: map[string]benchResult{x: {NsOp: 900, AllocsOp: 129}}},
		{name: "allocs +31% fails", base: base, measured: map[string]benchResult{x: {NsOp: 900, AllocsOp: 131}}, wantFailed: true},
		{name: "zero-alloc baseline holds at 0", base: zeroBase, measured: map[string]benchResult{x: {NsOp: 21, AllocsOp: 0}}},
		{name: "1 alloc against a 0 baseline fails", base: zeroBase, measured: map[string]benchResult{x: {NsOp: 21, AllocsOp: 1}}, wantFailed: true},
		{name: "guarded name missing from output", base: base, measured: map[string]benchResult{"BenchmarkY": {NsOp: 1000, AllocsOp: 100}}, wantErr: true},
		{name: "guarded name without baseline", base: map[string]benchResult{"BenchmarkY": {NsOp: 1000}}, measured: map[string]benchResult{x: {NsOp: 1000, AllocsOp: 100}}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, failures, err := compareBench([]string{x}, tc.base, tc.measured)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want an error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 1 || rows[0].Failed != tc.wantFailed || (len(failures) > 0) != tc.wantFailed {
				t.Fatalf("rows %+v failures %q, want failed=%v", rows, failures, tc.wantFailed)
			}
			if rows[0].After != tc.measured[x] || rows[0].BaselineNsOp != tc.base[x].NsOp {
				t.Fatalf("row %+v does not carry the measurement and baseline", rows[0])
			}
		})
	}
}

// TestGuardedNamesExist keeps the guarded list in step with the benchmarks
// and baselines it names, without running them.
func TestGuardedNamesExist(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_numeric.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Benchmarks []struct {
			Name string `json:"name"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("../../bench_numeric_test.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, name := range guarded {
		if seen[name] {
			t.Errorf("%s guarded twice", name)
		}
		seen[name] = true
		if !strings.Contains(string(src), "func "+name+"(b *testing.B)") {
			t.Errorf("%s is not defined in bench_numeric_test.go", name)
		}
	}
	for _, b := range file.Benchmarks {
		delete(seen, b.Name)
	}
	for name := range seen {
		t.Errorf("%s has no baseline in BENCH_numeric.json", name)
	}
}
