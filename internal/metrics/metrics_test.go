package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"gridmind/internal/obs"
)

func row(model string, lat time.Duration, ok bool) Interaction {
	return Interaction{Model: model, Agent: "acopf", Latency: lat, Success: ok,
		PromptTokens: 100, CompletionTokens: 50, ToolCalls: 2}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Record(row("m", time.Second, true))
		}()
	}
	wg.Wait()
	if r.Len() != 50 {
		t.Fatalf("len %d", r.Len())
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestSummarizeQuantiles(t *testing.T) {
	rows := []Interaction{
		row("m", 10*time.Second, true),
		row("m", 20*time.Second, true),
		row("m", 30*time.Second, true),
		row("m", 40*time.Second, false),
		row("m", 50*time.Second, true),
	}
	s := Summarize(rows)
	if s.Count != 5 {
		t.Fatalf("count %d", s.Count)
	}
	if s.SuccessRate != 0.8 {
		t.Fatalf("success rate %v", s.SuccessRate)
	}
	if s.MinLatency != 10*time.Second || s.MaxLatency != 50*time.Second {
		t.Fatalf("min/max %v/%v", s.MinLatency, s.MaxLatency)
	}
	if s.MedianLat != 30*time.Second {
		t.Fatalf("median %v", s.MedianLat)
	}
	if s.Q1Latency != 20*time.Second || s.Q3Latency != 40*time.Second {
		t.Fatalf("quartiles %v/%v", s.Q1Latency, s.Q3Latency)
	}
	if s.MeanLatency != 30*time.Second {
		t.Fatalf("mean %v", s.MeanLatency)
	}
	if s.TotalTokens != 5*150 {
		t.Fatalf("tokens %d", s.TotalTokens)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.SuccessRate != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]Interaction{row("m", 7*time.Second, true)})
	if s.MedianLat != 7*time.Second || s.Q1Latency != 7*time.Second {
		t.Fatalf("single-row quantiles %+v", s)
	}
}

// TestQuantile pins the shared interpolation for both element types: the
// float64 and Duration instantiations agree on the same order statistics,
// and an empty slice reads 0.
func TestQuantile(t *testing.T) {
	secs := []float64{1, 2, 4, 8}
	durs := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 3}, {0.75, 5}, {1, 8}} {
		if got := Quantile(secs, tc.q); got != tc.want {
			t.Errorf("Quantile(float64, %v) = %v, want %v", tc.q, got, tc.want)
		}
		if got := Quantile(durs, tc.q); got != time.Duration(tc.want*float64(time.Second)) {
			t.Errorf("Quantile(Duration, %v) = %v, want %vs", tc.q, got, tc.want)
		}
	}
	if Quantile([]float64(nil), 0.5) != 0 || Quantile([]time.Duration{}, 0.5) != 0 {
		t.Error("empty slice must give 0")
	}
}

func TestWriteFormats(t *testing.T) {
	r := NewRecorder()
	r.Record(row("m1", 1500*time.Millisecond, true))
	var cbuf bytes.Buffer
	if err := r.WriteCSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cbuf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "m1,acopf,1.500") {
		t.Fatalf("csv output %q", cbuf.String())
	}
}

// TestRecorderBounded records ten times the ring's capacity and checks that
// the log stays at maxRows, keeps the newest rows in order, and counts
// every overwritten one.
func TestRecorderBounded(t *testing.T) {
	r := NewRecorder()
	const total = 10 * maxRows
	for i := 0; i < total; i++ {
		r.Record(Interaction{Query: "q", PromptTokens: i})
	}
	if r.Len() != maxRows {
		t.Fatalf("len %d, want %d", r.Len(), maxRows)
	}
	if got := r.Dropped(); got != total-maxRows {
		t.Fatalf("dropped %d, want %d", got, total-maxRows)
	}
	if c := cap(r.rows); c > maxRows {
		t.Fatalf("ring grew to capacity %d", c)
	}
	rows := r.Rows()
	for i, row := range rows {
		if want := total - maxRows + i; row.PromptTokens != want {
			t.Fatalf("row %d holds turn %d, want %d", i, row.PromptTokens, want)
		}
	}
	if s := Summarize(rows); s.Count != maxRows {
		t.Fatalf("summary count %d", s.Count)
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("reset left rows or a dropped count")
	}
}

// TestRecorderHandles: a bound Recorder registers an agent's series on its
// first turn, the success counter on its first success and not before,
// counts every turn on the kept handles, and allocates nothing per Record
// once the ring is full.
func TestRecorderHandles(t *testing.T) {
	met := obs.NewRegistry()
	r := NewRecorder().Observe(met)
	r.Record(Interaction{Agent: "ca", Latency: time.Second, PromptTokens: 7, FactualSlips: 1})
	if _, ok := met.Value("gridmind_agent_success_total", "agent", "ca"); ok {
		t.Fatal("success series registered before any success")
	}
	for _, name := range []string{"gridmind_agent_interactions_total", "gridmind_agent_validation_errors_total", "gridmind_agent_factual_slips_total", "gridmind_agent_recoveries_total"} {
		if _, ok := met.Value(name, "agent", "ca"); !ok {
			t.Fatalf("%s not registered on the first turn", name)
		}
	}
	if _, ok := met.Value("gridmind_agent_tokens_total", "agent", "ca", "direction", "completion"); !ok {
		t.Fatal("completion token series not registered on the first turn")
	}
	r.Record(Interaction{Agent: "ca", Latency: time.Second, PromptTokens: 3, Success: true})
	r.Record(Interaction{Agent: "acopf", Success: true})
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"gridmind_agent_interactions_total", []string{"agent", "ca"}, 2},
		{"gridmind_agent_success_total", []string{"agent", "ca"}, 1},
		{"gridmind_agent_success_total", []string{"agent", "acopf"}, 1},
		{"gridmind_agent_tokens_total", []string{"agent", "ca", "direction", "prompt"}, 10},
		{"gridmind_agent_factual_slips_total", []string{"agent", "ca"}, 1},
	} {
		if v, ok := met.Value(c.name, c.labels...); !ok || v != c.want {
			t.Errorf("%s%v = %v (registered %v), want %v", c.name, c.labels, v, ok, c.want)
		}
	}

	for r.Len() < maxRows {
		r.Record(Interaction{Agent: "ca", Success: true})
	}
	turn := Interaction{Agent: "ca", Latency: time.Millisecond, PromptTokens: 1, Success: true}
	if a := testing.AllocsPerRun(200, func() { r.Record(turn) }); a != 0 {
		t.Fatalf("Record allocates %v per turn on kept handles", a)
	}
}
