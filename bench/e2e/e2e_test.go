package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// These tests cover pure functions only: no process is started, so they are
// fast and cannot flake.

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads() {
		a, b, c := scriptSHA256(w, 7), scriptSHA256(w, 7), scriptSHA256(w, 8)
		if a != b {
			t.Errorf("%s: same seed gave two scripts: %s, %s", w.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same script", w.Name)
		}
		if !reflect.DeepEqual(w.roundOps(7, 3), w.roundOps(7, 3)) {
			t.Errorf("%s: round 3 of seed 7 is not reproducible", w.Name)
		}
		if reflect.DeepEqual(w.roundOps(7, 3), w.roundOps(7, 4)) {
			t.Errorf("%s: rounds 3 and 4 of seed 7 are the same asks", w.Name)
		}
	}
}

func TestClassSharesDoNotDependOnSeedOrRound(t *testing.T) {
	for _, w := range workloads() {
		want := classShares(w.roundOps(1, 0))
		for _, sr := range [][2]int64{{1, 5}, {2, 0}, {99, 3}} {
			if got := classShares(w.roundOps(sr[0], int(sr[1]))); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: seed %d round %d has shares %v, seed 1 round 0 has %v", w.Name, sr[0], sr[1], got, want)
			}
		}
	}
}

// A script creates a session in a slot before it asks in it, and a round
// leaves the slots as it found them, so rounds can repeat.
func TestRoundsLeaveSlotsAsTheyFoundThem(t *testing.T) {
	for _, w := range workloads() {
		open := map[int]bool{}
		apply := func(ops []op) {
			for _, o := range ops {
				switch o.Kind {
				case opCreate:
					open[o.Slot] = true
				case opDelete:
					delete(open, o.Slot)
				case opAsk:
					if !open[o.Slot] {
						t.Fatalf("%s: ask %q in slot %d with no session", w.Name, o.Ask.Query, o.Slot)
					}
				}
			}
		}
		apply(w.Warmup())
		before := len(open)
		apply(w.roundOps(3, 0))
		if len(open) != before {
			t.Errorf("%s: %d open slots before the round, %d after", w.Name, before, len(open))
		}
	}
}

func TestPercentile(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{4}, 90, 4},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 100, 10},
		{ten, 1, 1},
		{[]float64{1, 2, 3}, 50, 2},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{5, 1, 100}, 5}, // one slow round does not move it
		{[]float64{4, 2, 8, 6}, 5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are statistics.quantiles(xs, n=4) of Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{1.5, 2.5, 2.0, 9.0, 3.0, 3.5}, 1.875, 4.875},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
}

func TestPromDeltas(t *testing.T) {
	before := parseProm(`# HELP x_total things
# TYPE x_total counter
x_total{result="hit"} 3
x_total{result="miss"} 1
lat_seconds_sum{tool="a"} 0.5
lat_seconds_sum{tool="b"} 1.5
plain 7
garbage line without value x
`)
	after := parseProm(`x_total{result="hit"} 10
x_total{result="miss"} 1
lat_seconds_sum{tool="a"} 0.75
lat_seconds_sum{tool="b"} 2.5
lat_seconds_sum{tool="c"} 4
plain 7.5e0
`)
	if got := after.delta(before, `x_total{result="hit"}`); got != 7 {
		t.Errorf("hit delta = %v, want 7", got)
	}
	if got := after.delta(before, "absent"); got != 0 {
		t.Errorf("absent delta = %v, want 0", got)
	}
	if got := after.delta(before, "plain"); got != 0.5 {
		t.Errorf("plain delta = %v, want 0.5", got)
	}
	if got := after.deltaPrefix(before, "lat_seconds_sum"); got != 5.25 {
		t.Errorf("prefix delta = %v, want 5.25 (a series new in the second scrape counts from 0)", got)
	}
	if len(before) != 5 {
		t.Errorf("parsed %d samples, want 5", len(before))
	}
	if got := ratio(after.delta(before, `x_total{result="hit"}`), after.delta(before, `x_total{result="miss"}`)); got != 1 {
		t.Errorf("hit ratio = %v, want 1", got)
	}
	if ratio(0, 0) != 1 || ratio(1, 3) != 0.25 || div(1, 0) != 0 || div(6, 3) != 2 {
		t.Error("ratio/div edge cases")
	}
}

func TestCheckReply(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	solve := solveAsk(118)
	sweep := ask{Marker: markSweep + "case300", Want: wantSuccess, Golden: "sweep300"}
	sweepReply := "Completed the T-1 sweep on case300: 411 outages analyzed — 105 secure, 246 with overloads, 60 causing islanding, 0 unsolvable. Top 5"
	for _, c := range []struct {
		name    string
		a       ask
		reply   string
		success bool
		ok      bool
	}{
		{"solve ok", solve, "Solved case118: the AC optimal power flow converged in 67 iterations. Total generation cost is $92720.68/h for", true, true},
		{"cost within 1e-4", solve, "the AC optimal power flow converged; cost is $92725.00/h", true, true},
		{"cost off", solve, "the AC optimal power flow converged; cost is $92820.68/h", true, false},
		{"no cost", solve, "the AC optimal power flow converged", true, false},
		{"marker missing", solve, "I could not complete the analysis; $92720.68/h", true, false},
		{"wrong flag", solve, "the AC optimal power flow converged; cost is $92720.68/h", false, false},
		{"sweep ok", sweep, sweepReply, true, true},
		{"sweep count off", sweep, "Completed the T-1 sweep on case300: 411 outages analyzed — 104 secure, 247 with overloads, 60 causing islanding, 0 unsolvable.", true, false},
		{"refusal expected", ask{Marker: markBadCase, Want: wantFailure}, `"IEEE 999" is not a supported test case`, false, true},
		{"refusal that succeeded", ask{Marker: markBadCase, Want: wantFailure}, `"IEEE 999" is not a supported test case`, true, false},
		{"outage unasserted", ask{Marker: markOutage, Want: anySuccess}, "Outage analysis: line 1-2 outage islands 1 bus", false, true},
	} {
		why := g.checkReply(&c.a, c.reply, c.success)
		if (why == "") != c.ok {
			t.Errorf("%s: checkReply = %q, want ok=%t", c.name, why, c.ok)
		}
	}
}

func TestBoundaryRisk(t *testing.T) {
	safe := []classStat{{"cheap", 0.40, 1}, {"mid", 0.42, 60}, {"dear", 0.18, 200}}
	if r := boundaryRisk(safe); len(r) != 0 {
		t.Errorf("safe mix flagged: %v", r)
	}
	// The fallback class at 10% puts p90 on its edge; p50 sits on the
	// edge of a 48% class.
	risky := []classStat{{"cheap", 0.48, 1}, {"normal", 0.42, 300}, {"fallback", 0.10, 2000}}
	if r := boundaryRisk(risky); len(r) != 2 {
		t.Errorf("risky mix: got %v, want p50 and p90 flagged", r)
	}
	// Neighbours that cost about the same are no boundary.
	similar := []classStat{{"a", 0.50, 1.0}, {"b", 0.40, 1.2}, {"c", 0.10, 1.3}}
	if r := boundaryRisk(similar); len(r) != 0 {
		t.Errorf("similar classes flagged: %v", r)
	}
}

func TestRoundsDone(t *testing.T) {
	s := time.Second
	for _, c := range []struct {
		rounds  int
		elapsed time.Duration
		want    bool
	}{
		{0, 0, false},
		{2, 100 * s, false}, // never before minRounds
		{3, 9 * s, false},   // next round would end at 12 s, nearer 20 s
		{5, 17 * s, false},  // 17 s + half of 3.4 s is still short of 20 s
		{5, 19 * s, true},   // another 3.8 s round would overshoot by more than stopping undershoots
		{6, 21 * s, true},
	} {
		if got := roundsDone(c.rounds, minRounds, c.elapsed, 20*s); got != c.want {
			t.Errorf("roundsDone(%d, %v) = %t, want %t", c.rounds, c.elapsed, got, c.want)
		}
	}
}

func TestSummarizeExcludesFailedAsksFromThroughput(t *testing.T) {
	t0 := time.Unix(0, 0)
	mk := func(ms int, fail string) sample {
		return sample{Kind: opAsk, Class: "c", Start: t0, End: t0.Add(time.Duration(ms) * time.Millisecond), Fail: fail}
	}
	r := &roundResult{wall: 2 * time.Second, cpuMS: 400, samples: []sample{
		mk(100, ""), mk(200, ""), mk(300, "ask: status 500"), mk(400, ""),
		{Kind: opCreate, Start: t0, End: t0.Add(time.Millisecond)},
	}}
	res := summarize(workloadByName("n1_study"), 1, []*roundResult{r})
	if res.Attempted != 4 || res.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 4 1", res.Attempted, res.Failed)
	}
	if got := res.Metrics["asks_per_s"]; got != 1.5 {
		t.Errorf("asks_per_s = %v, want 1.5 (3 correct asks in 2 s)", got)
	}
	if got := res.Metrics["ask_p90_ms"]; got != 400 {
		t.Errorf("ask_p90_ms = %v, want 400 (a failed ask keeps its latency)", got)
	}
	if got := res.Metrics["server_cpu_ms_per_ask"]; got != 100 {
		t.Errorf("server_cpu_ms_per_ask = %v, want 100", got)
	}
	if res.err() == nil {
		t.Error("1 failure in 4 asks is above the 1% limit and must be an error")
	}
}

// A round's times are divided by its host factor and the run reports the
// median round, so neither a slow host nor one disturbed round moves it.
func TestSummarizeBringsRoundsToTheReferenceSpeed(t *testing.T) {
	t0 := time.Unix(0, 0)
	round := func(askMS int, wall time.Duration, cpuMS, factor float64) *roundResult {
		s := sample{Kind: opAsk, Class: "c", Start: t0, End: t0.Add(time.Duration(askMS) * time.Millisecond)}
		meter := math.Pow(factor, 1/refExponent) * 3 // three samples that give this factor
		return &roundResult{
			wall: wall, cpuMS: cpuMS, samples: []sample{s, s},
			host: hostLoad{wallMS: meter * refNominalWallMS, cpuMS: meter * refNominalCPUMS, n: 3},
		}
	}
	res := summarize(workloadByName("n1_study"), 1, []*roundResult{
		round(100, time.Second, 200, 1),             // a quiet round
		round(150, 1500*time.Millisecond, 300, 1.5), // the same work on a host half again as slow
		round(400, 4*time.Second, 800, 1),           // a round the meter did not explain
	})
	for name, want := range map[string]float64{
		"ask_p50_ms": 100, "ask_p90_ms": 100, "asks_per_s": 2, "server_cpu_ms_per_ask": 100,
	} {
		if got := res.Metrics[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := res.PerRound[1]; got.P50 != 150 || math.Abs(got.Host-1.5) > 1e-12 {
		t.Errorf("round 2 prints p50 %v host x%v, want 150 as read and x1.5", got.P50, got.Host)
	}
}

func TestHostFactor(t *testing.T) {
	if f := (hostLoad{}).factor(); f != 1 {
		t.Errorf("no samples: factor %v, want 1", f)
	}
	var h hostLoad
	h.add(hostLoad{wallMS: 2 * refNominalWallMS, cpuMS: 2 * refNominalCPUMS, n: 2, spent: 25 * time.Millisecond})
	h.add(hostLoad{wallMS: 4 * refNominalWallMS, cpuMS: 2 * refNominalCPUMS, n: 2, spent: 45 * time.Millisecond})
	if f, want := h.factor(), math.Pow(1.5, refExponent); math.Abs(f-want) > 1e-12 {
		t.Errorf("factor %v, want %v (the mean of all samples over nominal, to the power refExponent)", f, want)
	}
	if f := h.cpuFactor(); math.Abs(f-1) > 1e-12 {
		t.Errorf("cpuFactor %v, want 1 (the meter's CPU time was nominal)", f)
	}
	if h.spent != 70*time.Millisecond {
		t.Errorf("spent %v, want 70ms", h.spent)
	}
	m := newHostMeter()
	m.tick()
	m.tick() // too soon after the first
	if m.n != 1 || m.wallMS <= 0 || m.cpuMS <= 0 || m.cpuMS > 1.01*m.wallMS || m.spent <= 0 {
		t.Errorf("two ticks in a row: %d samples, %v ms wall, %v ms cpu, %v spent; want one sample", m.n, m.wallMS, m.cpuMS, m.spent)
	}
}

// BENCHMARK.json and the code name the same workloads.
func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	spec, err := loadSpec("../..")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads() {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", got, want)
	}
	e2e := map[string]bool{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, name := range []string{"setup_s", "ask_p50_ms", "ask_p90_ms", "asks_per_s", "server_cpu_ms_per_ask", "server_peak_rss_mb"} {
		if !e2e[name] {
			t.Errorf("BENCHMARK.json lacks end-to-end metric %s", name)
		}
	}
	if len(e2e) != 6 {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the run produces 6", len(e2e))
	}
}

// classShares returns each class's share of the asks in ops.
func classShares(ops []op) map[string]float64 {
	counts := map[string]float64{}
	var total float64
	for _, o := range ops {
		if o.Kind == opAsk {
			counts[o.Ask.Class]++
			total++
		}
	}
	for k := range counts {
		counts[k] /= total
	}
	return counts
}
