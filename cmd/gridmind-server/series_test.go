package main

import (
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// seriesSet reduces a Prometheus exposition to its series: every sample
// line's name and labels without the value, each histogram by its _count
// line alone (its buckets and sum come and go with it).
func seriesSet(body string) []string {
	hist := map[string]bool{}
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, ok = strings.CutSuffix(name, " histogram"); ok {
				hist[name] = true
			}
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id := line[:strings.LastIndexByte(line, ' ')]
		name, _, _ := strings.Cut(id, "{")
		if base, ok := strings.CutSuffix(name, "_bucket"); ok && hist[base] {
			continue
		}
		if base, ok := strings.CutSuffix(name, "_sum"); ok && hist[base] {
			continue
		}
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// askSeries runs queries on a fresh server's default session and returns
// the series /metrics then serves.
func askSeries(t *testing.T, queries ...string) []string {
	t.Helper()
	_, ts := newTestServer(t, 8)
	for _, q := range queries {
		if resp, out := postJSON(t, ts.URL+"/ask", map[string]any{"query": q}); resp.StatusCode != http.StatusOK {
			t.Fatalf("ask %q: status %d %v", q, resp.StatusCode, out)
		}
	}
	_, _, body := fetchMetrics(t, ts.URL+"/metrics")
	return seriesSet(body)
}

// TestMetricsSeriesSet pins which series /metrics serves after a scripted
// session of every chat class, and after a session whose every turn
// fails: the same set the process served before the agent recorder kept
// its instrument handles, with no success counter until a turn succeeds.
func TestMetricsSeriesSet(t *testing.T) {
	for _, c := range []struct {
		golden  string
		queries []string
	}{
		{"series_scripted.txt", []string{
			"Solve IEEE 57",
			"Set the load at bus 9 to 40.0 MW",
			"Increase the load at bus 9 by 2.5 MW",
			"Run N-1 contingency analysis and show the top 5",
			"Show the top 3 most critical contingencies",
			"Analyze the outage of branch 7",
			"What is the current network status?",
			"Assess the quality of the solution",
			"Show the load sensitivity price map",
			"Solve IEEE 999",
			"What can you help me with?",
		}},
		{"series_failure.txt", []string{"Solve IEEE 999", "Solve IEEE 999"}},
	} {
		t.Run(strings.TrimSuffix(c.golden, ".txt"), func(t *testing.T) {
			got := askSeries(t, c.queries...)
			raw, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSpace(string(raw)), "\n")
			missing, extra := diffSets(want, got)
			if len(missing)+len(extra) > 0 {
				t.Fatalf("/metrics series differ from testdata/%s:\nmissing %q\nextra %q", c.golden, missing, extra)
			}
		})
	}
}

// diffSets returns the entries of want absent from got and those of got
// absent from want.
func diffSets(want, got []string) (missing, extra []string) {
	in := func(set []string) map[string]bool {
		m := map[string]bool{}
		for _, s := range set {
			m[s] = true
		}
		return m
	}
	w, g := in(want), in(got)
	for _, s := range want {
		if !g[s] {
			missing = append(missing, s)
		}
	}
	for _, s := range got {
		if !w[s] {
			extra = append(extra, s)
		}
	}
	return missing, extra
}
