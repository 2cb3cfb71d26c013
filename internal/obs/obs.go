// Package obs is the process-wide observability core: a typed metrics
// registry with allocation-free atomic counters, gauges, and fixed-bucket
// latency histograms, exported in Prometheus text exposition format.
//
// Design contract (see README.md):
//
//   - Registration (Counter, Gauge, Histogram, ...) is get-or-create,
//     keyed by metric name + label pairs. It takes the registry lock and
//     may allocate. Do it once, at construction time, and keep the handle.
//   - The hot path (Counter.Inc/Add, Gauge.Set/Add, Histogram.Observe)
//     is a handful of atomic operations: no locks, no allocations.
//   - Scraping (WritePrometheus) takes the lock only to snapshot the
//     instrument list; values are read with atomic loads while traffic
//     continues.
//
// Metric names follow Prometheus conventions: `gridmind_<layer>_<what>`
// with a `_total` suffix on counters and a `_seconds` suffix on latency
// histograms. Label cardinality is bounded by construction (tool names,
// deployment names, agent names — never session or query IDs).
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// kind discriminates the exposition TYPE of a metric family.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing integer. Inc and Add are single
// atomic adds: safe for concurrent use, zero allocations, no locks.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can go up and down. The value is stored as
// IEEE-754 bits in a uint64 so Set is a single atomic store and Add is a
// CAS loop — no locks, no allocations.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge value.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Observe is a binary
// search over the (immutable) bounds plus three atomic adds — no locks,
// no allocations. Bounds are upper bucket edges in ascending order; an
// implicit +Inf bucket catches the overflow.
type Histogram struct {
	bounds  []float64 // immutable after construction
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-added
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	// Drop duplicate edges so cumulative output stays strictly labelled.
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{
		bounds:  uniq,
		buckets: make([]atomic.Int64, len(uniq)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns per-bucket counts (cumulative), the total, and the sum,
// internally consistent: total == cumulative count through +Inf.
func (h *Histogram) snapshot() (cum []int64, total int64, sum float64) {
	cum = make([]int64, len(h.buckets))
	var run int64
	for i := range h.buckets {
		run += h.buckets[i].Load()
		cum[i] = run
	}
	return cum, run, math.Float64frombits(h.sumBits.Load())
}

// DefLatencyBuckets spans 100µs to ~100s in roughly-logarithmic steps —
// wide enough for both sub-millisecond tool calls and multi-second
// LLM/ACOPF round trips.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// series is one labelled instrument inside a family. Exactly one of
// c/g/h/fn is set, matching the family kind (fn may back either a
// counter or a gauge family).
type series struct {
	labels []string // alternating name, value; sorted by name
	key    string   // canonical label encoding, family-unique
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is all series sharing one metric name (one HELP/TYPE pair).
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and writes them as Prometheus text.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Library defaults
// (engine.Default()) publish here; explicitly constructed components get
// their own registry unless told otherwise, so tests that pin exact
// counts stay isolated.
func Default() *Registry { return defaultRegistry }

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// labelKey canonicalises alternating name/value pairs: sorted by name,
// encoded unambiguously. Returns the sorted copy too. Label names are
// checked by ensureSeries when a series is first registered, not here.
func labelKey(labels []string) (string, []string) {
	if len(labels)%2 != 0 {
		panic("obs: odd label list; want name, value pairs")
	}
	n := len(labels) / 2
	sorted := make([]string, len(labels))
	copy(sorted, labels)
	// Insertion sort on pairs by label name; n is tiny.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && sorted[2*j] < sorted[2*(j-1)]; j-- {
			sorted[2*j], sorted[2*(j-1)] = sorted[2*(j-1)], sorted[2*j]
			sorted[2*j+1], sorted[2*(j-1)+1] = sorted[2*(j-1)+1], sorted[2*j+1]
		}
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(sorted[2*i])
		b.WriteByte(1)
		b.WriteString(sorted[2*i+1])
		b.WriteByte(2)
	}
	return b.String(), sorted
}

// ensure returns the family for name, creating it with the given kind and
// help, and panics on a name/kind conflict (registration is static code;
// a conflict is a programming error, not a runtime condition). The name is
// checked when the family is created: an invalid one never is, so every
// call with it panics.
func (r *Registry) ensure(name, help string, k kind) *family {
	f, ok := r.fams[name]
	if !ok {
		if !nameRe.MatchString(name) {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
		f = &family{name: name, help: help, kind: k, byKey: make(map[string]*series)}
		r.fams[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, k, f.kind))
	}
	if f.help == "" {
		f.help = help
	}
	return f
}

// ensureSeries returns the series for labels, creating it on first use.
// Label names are checked when the series is created.
func (f *family) ensureSeries(labels []string) *series {
	key, sorted := labelKey(labels)
	s, ok := f.byKey[key]
	if !ok {
		for i := 0; i < len(sorted); i += 2 {
			if !labelRe.MatchString(sorted[i]) {
				panic(fmt.Sprintf("obs: invalid label name %q", sorted[i]))
			}
		}
		s = &series{labels: sorted, key: key}
		f.byKey[key] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter returns the counter for name + label pairs, registering it on
// first use. labels are alternating name, value strings.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.ensure(name, help, kindCounter).ensureSeries(labels)
	if s.fn != nil {
		panic(fmt.Sprintf("obs: counter %q series already registered as func-backed", name))
	}
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge for name + label pairs, registering it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.ensure(name, help, kindGauge).ensureSeries(labels)
	if s.fn != nil {
		panic(fmt.Sprintf("obs: gauge %q series already registered as func-backed", name))
	}
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a callback-backed gauge evaluated at scrape time.
// Re-registering the same series replaces the callback (latest binding
// wins), which keeps construction idempotent.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.ensure(name, help, kindGauge).ensureSeries(labels)
	if s.g != nil {
		panic(fmt.Sprintf("obs: gauge %q series already registered as stored", name))
	}
	s.fn = fn
}

// CounterFunc registers a callback-backed counter evaluated at scrape
// time, for monotone values maintained elsewhere (e.g. breaker transition
// counts). The callback must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.ensure(name, help, kindCounter).ensureSeries(labels)
	if s.c != nil {
		panic(fmt.Sprintf("obs: counter %q series already registered as stored", name))
	}
	s.fn = fn
}

// Histogram returns the histogram for name + label pairs, registering it
// on first use. A nil or empty buckets slice selects DefLatencyBuckets.
// Bucket bounds are fixed at first registration; later calls for the
// same series return the existing instrument regardless of buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.ensure(name, help, kindHistogram).ensureSeries(labels)
	if s.h == nil {
		if len(buckets) == 0 {
			buckets = DefLatencyBuckets
		}
		s.h = newHistogram(buckets)
	}
	return s.h
}

// Value returns the current value of the counter or gauge series for
// name + label pairs — stored or func-backed, the number WritePrometheus
// prints for it — and ok=false when no such series is registered (or the
// family is a histogram). It never registers anything, so a misspelled
// name reads as missing rather than as a fresh zero. Label order does not
// matter. A func-backed series is evaluated outside the registry lock.
func (r *Registry) Value(name string, labels ...string) (float64, bool) {
	key, _ := labelKey(labels)
	r.mu.Lock()
	var s series
	if f := r.fams[name]; f != nil && f.kind != kindHistogram && f.byKey[key] != nil {
		s = *f.byKey[key]
	}
	r.mu.Unlock()
	switch {
	case s.fn != nil:
		return s.fn(), true
	case s.c != nil:
		return float64(s.c.Value()), true
	case s.g != nil:
		return s.g.Value(), true
	}
	return 0, false
}
