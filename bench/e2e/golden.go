package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

//go:embed golden.json
var goldenJSON []byte

// sweepCounts is the summary line of an N-1 sweep reply.
type sweepCounts struct {
	Total     int `json:"total"`
	Secure    int `json:"secure"`
	Overload  int `json:"overload"`
	Islanding int `json:"islanding"`
	Unsolved  int `json:"unsolved"`
}

// goldens holds the pinned answers of the pristine cases: objective costs
// (compared to a relative 1e-4, the IPM's converged digits) and sweep
// summary counts (compared exactly).
type goldens struct {
	costs  map[string]float64
	sweeps map[string]sweepCounts
}

func loadGoldens() (*goldens, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(goldenJSON, &raw); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	g := &goldens{costs: map[string]float64{}, sweeps: map[string]sweepCounts{}}
	for k, v := range raw {
		switch {
		case strings.HasPrefix(k, "cost"):
			var c float64
			if err := json.Unmarshal(v, &c); err != nil {
				return nil, fmt.Errorf("golden.json: %s: %w", k, err)
			}
			g.costs[k] = c
		case strings.HasPrefix(k, "sweep"):
			var s sweepCounts
			if err := json.Unmarshal(v, &s); err != nil {
				return nil, fmt.Errorf("golden.json: %s: %w", k, err)
			}
			g.sweeps[k] = s
		default:
			return nil, fmt.Errorf("golden.json: unknown key %q", k)
		}
	}
	return g, nil
}

var (
	reCost  = regexp.MustCompile(`\$([0-9]+(?:\.[0-9]+)?)/h`)
	reSweep = regexp.MustCompile(`(\d+) outages analyzed — (\d+) secure, (\d+) with overloads, (\d+) causing islanding, (\d+) unsolvable`)
)

const costRelTol = 1e-4

// checkReply returns "" when the reply is what the ask's template expects,
// else the reason it is not.
func (g *goldens) checkReply(a *ask, reply string, success bool) string {
	if !strings.Contains(reply, a.Marker) {
		return "reply marker missing"
	}
	if (a.Want == wantSuccess && !success) || (a.Want == wantFailure && success) {
		return fmt.Sprintf("success=%t", success)
	}
	if a.Golden == "" {
		return ""
	}
	if want, ok := g.costs[a.Golden]; ok {
		m := reCost.FindStringSubmatch(reply)
		if m == nil {
			return "no cost in reply"
		}
		got, _ := strconv.ParseFloat(m[1], 64) // the pattern admits only numbers
		if math.Abs(got-want) > costRelTol*want {
			return fmt.Sprintf("cost %.2f, golden %.2f", got, want)
		}
		return ""
	}
	if want, ok := g.sweeps[a.Golden]; ok {
		m := reSweep.FindStringSubmatch(reply)
		if m == nil {
			return "no sweep summary in reply"
		}
		var n [5]int
		for i := range n {
			n[i], _ = strconv.Atoi(m[i+1]) // the pattern admits only digits
		}
		got := sweepCounts{n[0], n[1], n[2], n[3], n[4]}
		if got != want {
			return fmt.Sprintf("sweep %+v, golden %+v", got, want)
		}
		return ""
	}
	return fmt.Sprintf("unknown golden %q", a.Golden)
}
