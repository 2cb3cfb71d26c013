package obs

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed `name{labels} value` line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promFamily is one parsed HELP/TYPE block with its samples.
type promFamily struct {
	name    string
	help    string
	typ     string
	samples []promSample
}

// parsePrometheus is a strict parser for the subset of the text
// exposition format WritePrometheus emits. It fails on any structural
// violation: samples before HELP/TYPE, TYPE without HELP, malformed
// label syntax, unparseable values.
func parsePrometheus(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := make(map[string]*promFamily)
	var cur *promFamily
	sawHelp := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		lineNo := ln + 1
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if name == "" {
				t.Fatalf("line %d: HELP with empty name", lineNo)
			}
			if fams[name] != nil {
				t.Fatalf("line %d: duplicate HELP for %q", lineNo, name)
			}
			fams[name] = &promFamily{name: name, help: help}
			sawHelp[name] = true
			cur = fams[name]
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: TYPE missing kind", lineNo)
			}
			if !sawHelp[name] {
				t.Fatalf("line %d: TYPE for %q before HELP", lineNo, name)
			}
			if cur == nil || cur.name != name {
				t.Fatalf("line %d: TYPE for %q does not follow its HELP", lineNo, name)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown TYPE %q", lineNo, typ)
			}
			cur.typ = typ
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", lineNo, line)
		default:
			s := parseSampleLine(t, lineNo, line)
			if cur == nil {
				t.Fatalf("line %d: sample before any HELP/TYPE block", lineNo)
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(s.name, "_bucket"), "_sum"), "_count")
			if s.name != cur.name && base != cur.name {
				t.Fatalf("line %d: sample %q outside its family block (%q)", lineNo, s.name, cur.name)
			}
			if cur.typ == "" {
				t.Fatalf("line %d: sample for %q before TYPE", lineNo, cur.name)
			}
			cur.samples = append(cur.samples, s)
		}
	}
	return fams
}

func parseSampleLine(t *testing.T, lineNo int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value separator in %q", lineNo, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, "=\"")
			if eq < 0 {
				t.Fatalf("line %d: malformed label in %q", lineNo, line)
			}
			lname := rest[:eq]
			rest = rest[eq+2:]
			// Un-escape the quoted value: \\ \" \n.
			var val strings.Builder
			for {
				if rest == "" {
					t.Fatalf("line %d: unterminated label value in %q", lineNo, line)
				}
				if rest[0] == '"' {
					rest = rest[1:]
					break
				}
				if rest[0] == '\\' {
					if len(rest) < 2 {
						t.Fatalf("line %d: dangling escape in %q", lineNo, line)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: bad escape \\%c in %q", lineNo, rest[1], line)
					}
					rest = rest[2:]
					continue
				}
				val.WriteByte(rest[0])
				rest = rest[1:]
			}
			s.labels[lname] = val.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = strings.TrimPrefix(rest, "}")
	}
	rest = strings.TrimPrefix(rest, " ")
	v, err := parseValue(rest)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", lineNo, rest, err)
	}
	s.value = v
	return s
}

func parseValue(s string) (float64, error) {
	if s == "+Inf" {
		return 0, fmt.Errorf("+Inf sample value unexpected")
	}
	return strconv.ParseFloat(s, 64)
}

// TestPrometheusRoundTrip registers one of everything — including labels
// that need escaping — scrapes, re-parses, and asserts the structural
// invariants of the format: HELP/TYPE pairs, escaped labels restored,
// histogram bucket monotonicity, and +Inf bucket == _count.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_ops_total", "total ops", "tool", "solve_power_flow").Add(42)
	r.Counter("rt_ops_total", "total ops", "tool", "run_contingency").Add(7)
	r.Gauge("rt_live", "live things").Set(3)
	r.GaugeFunc("rt_cb", "callback gauge", func() float64 { return 1.5 }, "dep", "primary")
	nasty := "weird\\path\"quoted\"\nnewline"
	r.Counter("rt_esc_total", "escaping", "path", nasty).Inc()
	h := r.Histogram("rt_lat_seconds", "latency", []float64{0.01, 0.1, 1}, "tool", "x")
	for _, v := range []float64{0.005, 0.02, 0.02, 0.5, 9} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	fams := parsePrometheus(t, text)

	// Families sorted by name in the raw text.
	var lastHelp string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
			if name <= lastHelp {
				t.Fatalf("families not sorted: %q after %q", name, lastHelp)
			}
			lastHelp = name
		}
	}

	ops := fams["rt_ops_total"]
	if ops == nil || ops.typ != "counter" || len(ops.samples) != 2 {
		t.Fatalf("rt_ops_total family wrong: %+v", ops)
	}
	byTool := map[string]float64{}
	for _, s := range ops.samples {
		byTool[s.labels["tool"]] = s.value
	}
	if byTool["solve_power_flow"] != 42 || byTool["run_contingency"] != 7 {
		t.Fatalf("counter values lost in round trip: %v", byTool)
	}

	esc := fams["rt_esc_total"]
	if esc == nil || len(esc.samples) != 1 {
		t.Fatalf("rt_esc_total missing: %+v", esc)
	}
	if got := esc.samples[0].labels["path"]; got != nasty {
		t.Fatalf("label escaping not reversible: %q != %q", got, nasty)
	}

	if cb := fams["rt_cb"]; cb == nil || cb.typ != "gauge" || cb.samples[0].value != 1.5 {
		t.Fatalf("callback gauge wrong: %+v", cb)
	}

	lat := fams["rt_lat_seconds"]
	if lat == nil || lat.typ != "histogram" {
		t.Fatalf("rt_lat_seconds family wrong: %+v", lat)
	}
	var buckets []promSample
	var sum, count float64
	var haveSum, haveCount, haveInf bool
	var infVal float64
	for _, s := range lat.samples {
		switch s.name {
		case "rt_lat_seconds_bucket":
			buckets = append(buckets, s)
		case "rt_lat_seconds_sum":
			sum, haveSum = s.value, true
		case "rt_lat_seconds_count":
			count, haveCount = s.value, true
		default:
			t.Fatalf("unexpected histogram sample %q", s.name)
		}
	}
	if !haveSum || !haveCount {
		t.Fatal("histogram missing _sum or _count")
	}
	prev := -1.0
	prevLe := ""
	for _, b := range buckets {
		le := b.labels["le"]
		if le == "" {
			t.Fatalf("bucket without le label: %+v", b)
		}
		if le == "+Inf" {
			haveInf, infVal = true, b.value
		} else if f, err := strconv.ParseFloat(le, 64); err != nil {
			t.Fatalf("bad le %q: %v", le, err)
		} else if prevLe != "" && prevLe != "+Inf" {
			pf, _ := strconv.ParseFloat(prevLe, 64)
			if f <= pf {
				t.Fatalf("bucket edges not increasing: %v after %v", f, pf)
			}
		}
		if b.value < prev {
			t.Fatalf("bucket counts not cumulative: %v after %v (le=%s)", b.value, prev, le)
		}
		prev = b.value
		prevLe = le
	}
	if !haveInf {
		t.Fatal("histogram missing +Inf bucket")
	}
	if infVal != count {
		t.Fatalf("+Inf bucket (%v) != _count (%v)", infVal, count)
	}
	if count != 5 || sum < 9.5 || sum > 9.6 {
		t.Fatalf("histogram totals wrong: count=%v sum=%v", count, sum)
	}
}

// TestPrometheusConsistentUnderTraffic scrapes while observations land
// and re-checks +Inf == count on every scrape: the writer must emit an
// internally consistent snapshot even mid-update.
func TestPrometheusConsistentUnderTraffic(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tr_lat_seconds", "lat", []float64{0.001, 0.01})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			h.Observe(0.002)
		}
	}()
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		fams := parsePrometheus(t, buf.String())
		lat := fams["tr_lat_seconds"]
		var inf, count float64
		for _, s := range lat.samples {
			if s.name == "tr_lat_seconds_bucket" && s.labels["le"] == "+Inf" {
				inf = s.value
			}
			if s.name == "tr_lat_seconds_count" {
				count = s.value
			}
		}
		if inf != count {
			t.Fatalf("scrape %d: +Inf bucket %v != count %v", i, inf, count)
		}
	}
	<-done
}

// TestRegistryValue pins the read path: Value returns, for every counter
// and gauge kind, exactly the sample WritePrometheus prints; a missing
// series (unknown name, unknown labels, histogram family) is ok=false and
// registers nothing; label order does not matter.
func TestRegistryValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ops_total", "ops", "tool", "solve", "result", "ok").Add(7)
	r.Gauge("test_temp", "temp", "zone", "a").Set(-1.25)
	r.CounterFunc("test_trips_total", "trips", func() float64 { return 3 }, "dep", "x")
	r.GaugeFunc("test_depth", "depth", func() float64 { return 0.1 })
	r.Histogram("test_lat_seconds", "lat", nil).Observe(0.002)

	var before bytes.Buffer
	if err := r.WritePrometheus(&before); err != nil {
		t.Fatal(err)
	}
	printed := func(name string, labels map[string]string) float64 {
		t.Helper()
		fams := parsePrometheus(t, before.String())
		for _, s := range fams[name].samples {
			if fmt.Sprint(s.labels) == fmt.Sprint(labels) {
				return s.value
			}
		}
		t.Fatalf("no printed sample %s%v", name, labels)
		return 0
	}

	for _, tc := range []struct {
		kind, name string
		labels     []string
		want       float64
	}{
		{"counter", "test_ops_total", []string{"tool", "solve", "result", "ok"}, 7},
		{"counter, labels reordered", "test_ops_total", []string{"result", "ok", "tool", "solve"}, 7},
		{"gauge", "test_temp", []string{"zone", "a"}, -1.25},
		{"counter func", "test_trips_total", []string{"dep", "x"}, 3},
		{"gauge func", "test_depth", nil, 0.1},
	} {
		v, ok := r.Value(tc.name, tc.labels...)
		if !ok || v != tc.want {
			t.Errorf("%s: Value = %v, %v; want %v, true", tc.kind, v, ok, tc.want)
		}
		want := map[string]string{}
		for i := 0; i < len(tc.labels); i += 2 {
			want[tc.labels[i]] = tc.labels[i+1]
		}
		if p := printed(tc.name, want); v != p {
			t.Errorf("%s: Value = %v, WritePrometheus printed %v", tc.kind, v, p)
		}
	}

	for _, tc := range []struct {
		name   string
		labels []string
	}{
		{"test_misspelled_total", nil},
		{"test_ops_total", []string{"tool", "solve"}},
		{"test_ops_total", []string{"tool", "solve", "result", "fail"}},
		{"test_temp", nil},
		{"test_lat_seconds", nil},
	} {
		if v, ok := r.Value(tc.name, tc.labels...); ok {
			t.Errorf("Value(%s%v) = %v, true; want ok=false", tc.name, tc.labels, v)
		}
	}
	var after bytes.Buffer
	if err := r.WritePrometheus(&after); err != nil {
		t.Fatal(err)
	}
	if after.String() != before.String() {
		t.Fatalf("missing-series reads changed the exposition:\nbefore:\n%s\nafter:\n%s", before.String(), after.String())
	}
}
