package obs

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(5)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_temp", "temp")
	g.Set(2.5)
	g.Add(-1.25)
	if got := g.Value(); got != 1.25 {
		t.Fatalf("gauge = %v, want 1.25", got)
	}
}

func TestGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_x_total", "x", "tool", "solve")
	b := r.Counter("test_x_total", "", "tool", "solve")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("test_x_total", "x", "tool", "other")
	if a == c {
		t.Fatal("different label values must return distinct counters")
	}
	// Label order must not matter.
	h1 := r.Histogram("test_lat_seconds", "lat", nil, "a", "1", "b", "2")
	h2 := r.Histogram("test_lat_seconds", "lat", nil, "b", "2", "a", "1")
	if h1 != h2 {
		t.Fatal("label order must not affect series identity")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_y_total", "y")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("test_y_total", "y")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name should panic")
		}
	}()
	r.Counter("bad-name", "")
}

// TestInvalidNamesPanicOnEveryCall: names are checked only when a family
// or series is first registered, and an invalid one never is, so the
// first call and every repeat panic, for each instrument kind.
func TestInvalidNamesPanicOnEveryCall(t *testing.T) {
	r := NewRegistry()
	register := map[string]func(){
		"counter name":     func() { r.Counter("bad-name", "") },
		"gauge name":       func() { r.Gauge("0bad", "") },
		"histogram name":   func() { r.Histogram("bad name_seconds", "", nil) },
		"gauge func name":  func() { r.GaugeFunc("bad.name", "", func() float64 { return 0 }) },
		"counter label":    func() { r.Counter("test_ok_total", "", "bad-label", "v") },
		"gauge label":      func() { r.Gauge("test_ok_gauge", "", "ok", "v", "1bad", "v") },
		"histogram label":  func() { r.Histogram("test_ok_seconds", "", nil, "bad label", "v") },
		"counter fn label": func() { r.CounterFunc("test_ok_fn_total", "", func() float64 { return 0 }, "", "v") },
	}
	for name, call := range register {
		for attempt := 1; attempt <= 2; attempt++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: call %d did not panic", name, attempt)
					}
				}()
				call()
			}()
		}
	}
	// A valid series of a family an invalid label set was refused for
	// still registers, and the refused set still panics after it.
	r.Counter("test_ok_total", "", "good", "v").Inc()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid label accepted once its family exists")
			}
		}()
		r.Counter("test_ok_total", "", "bad-label", "v")
	}()
	if v, ok := r.Value("test_ok_total", "good", "v"); !ok || v != 1 {
		t.Fatalf("valid series = %v, %v", v, ok)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_dur_seconds", "dur", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.605) > 1e-12 {
		t.Fatalf("sum = %v, want 5.605", h.Sum())
	}
	cum, total, _ := h.snapshot()
	want := []int64{1, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_d_seconds", "d", []float64{0.001, 1})
	h.ObserveDuration(500 * time.Millisecond)
	if h.Count() != 1 || h.Sum() != 0.5 {
		t.Fatalf("count=%d sum=%v, want 1/0.5", h.Count(), h.Sum())
	}
}

func TestGaugeFuncAndCounterFuncRebind(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("test_live", "live", func() float64 { return v })
	// Re-registering replaces the callback: latest binding wins.
	r.GaugeFunc("test_live", "live", func() float64 { return v * 10 })
	r.CounterFunc("test_transitions_total", "tr", func() float64 { return 7 })
	var b testWriter
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !contains(out, "test_live 10") {
		t.Fatalf("rebound gauge func not used:\n%s", out)
	}
	if !contains(out, "test_transitions_total 7") {
		t.Fatalf("counter func missing:\n%s", out)
	}
}

// TestHotPathAllocs pins the package contract: Inc/Add/Set/Observe on
// pre-registered instruments allocate nothing.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_hot_total", "hot", "tool", "x")
	g := r.Gauge("test_hot_gauge", "hot")
	h := r.Histogram("test_hot_seconds", "hot", nil)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(0.5)
		h.Observe(0.02)
	}); n != 0 {
		t.Fatalf("hot path allocates %v per run, want 0", n)
	}
}

// TestConcurrentScrape hammers registration, increments, and scrapes from
// many goroutines; run with -race this pins the locking story.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("test_conc_total", "conc", "worker", string(rune('a'+id)))
			h := r.Histogram("test_conc_seconds", "conc", nil, "worker", string(rune('a'+id)))
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.001)
				}
			}
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

type testWriter struct{ buf []byte }

func (w *testWriter) Write(p []byte) (int, error) { w.buf = append(w.buf, p...); return len(p), nil }
func (w *testWriter) String() string              { return string(w.buf) }

func contains(s, sub string) bool { return strings.Contains(s, sub) }
