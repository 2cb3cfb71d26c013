package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
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

func TestByModelAndFilter(t *testing.T) {
	rows := []Interaction{row("b", time.Second, true), row("a", time.Second, true), row("b", 2*time.Second, false)}
	models, groups := ByModel(rows)
	if len(models) != 2 || models[0] != "a" || models[1] != "b" {
		t.Fatalf("models %v", models)
	}
	if len(groups["b"]) != 2 {
		t.Fatalf("group b %d", len(groups["b"]))
	}
	ok := Filter(rows, func(i Interaction) bool { return i.Success })
	if len(ok) != 2 {
		t.Fatalf("filter %d", len(ok))
	}
}

func TestWriteFormats(t *testing.T) {
	r := NewRecorder()
	r.Record(row("m1", 1500*time.Millisecond, true))
	var jbuf, cbuf bytes.Buffer
	if err := r.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jbuf.String(), `"m1"`) {
		t.Fatal("json output lacks model")
	}
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
