package agents

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// planRef is the unfiltered planner: every regex runs on every step,
// including the AC-vocabulary check classify once made (both of its
// outcomes routed to the ACOPF agent). Plan skips a regex on ASCII text
// without its literal anchor and must agree with this reference on all
// input.
func planRef(query string) []Assignment {
	parts := splitStepsRef(query)
	var out []Assignment
	lastCase := ""
	for _, p := range parts {
		agent := classifyRef(p)
		if c := reCasePlanner.FindString(p); c != "" {
			lastCase = c
		} else if lastCase != "" && agent == CAAgentName {
			p = p + " (network: " + lastCase + ")"
		}
		out = append(out, Assignment{Agent: agent, Query: strings.TrimSpace(p)})
	}
	return out
}

var reACWordsRef = regexp.MustCompile(`(?i)solve|opf|optimal|dispatch|load|cost|status|voltage`)

func splitStepsRef(query string) []string {
	parts := reSplit.Split(query, -1)
	var out []string
	for _, p := range parts {
		if s := strings.TrimSpace(p); s != "" {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return []string{query}
	}
	if len(out) == 1 && reCAWords.MatchString(out[0]) && hasSolveIntentRef(out[0]) {
		return splitMixed(out[0])
	}
	return out
}

func hasSolveIntentRef(s string) bool {
	lower := strings.ToLower(s)
	return (strings.Contains(lower, "solve") || strings.Contains(lower, "opf")) &&
		reCasePlanner.MatchString(s)
}

func classifyRef(step string) string {
	if reCAWords.MatchString(step) {
		return CAAgentName
	}
	if reACWordsRef.MatchString(step) {
		return ACOPFAgentName
	}
	return ACOPFAgentName
}

// planCorpus is every query template of the end-to-end benchmark
// (bench/e2e/script.go) at several parameter values, the conversation
// tests' phrasings, compound requests, and non-ASCII text on which (?i)
// folds ſ onto s and the Kelvin sign onto k.
func planCorpus() []string {
	var qs []string
	for _, c := range []int{14, 30, 57, 118, 300, 999} {
		qs = append(qs,
			fmt.Sprintf("Solve IEEE %d", c),
			fmt.Sprintf("Solve IEEE %d, then run contingency analysis", c),
			fmt.Sprintf("Solve IEEE %d and identify critical contingencies", c))
		for _, k := range []int{3, 7, 10} {
			qs = append(qs, fmt.Sprintf("Run N-1 contingency analysis on IEEE %d and show the top %d", c, k))
		}
	}
	for _, verb := range []string{"Increase", "Raise", "Decrease", "Lower", "Reduce"} {
		qs = append(qs, fmt.Sprintf("%s the load at bus %d by %.1f MW", verb, 9, 2.5))
	}
	for _, verb := range []string{"Set", "Change"} {
		qs = append(qs, fmt.Sprintf("%s the load at bus %d to %.1f MW", verb, 64, 51.3))
	}
	for _, k := range []int{3, 5, 10} {
		qs = append(qs,
			fmt.Sprintf("Show the top %d most critical contingencies", k),
			fmt.Sprintf("Run N-1 contingency analysis and show the top %d", k),
			fmt.Sprintf("Analyze the outage of branch %d", 7*k))
	}
	// One ASCII phrase per contingency anchor, alone and after a solve.
	for _, p := range []string{
		"rank the contingencies", "find critical lines", "run N-1", "run a T-1 study",
		"run an N-K study", "list each outage", "assess reliability", "find vulnerable lines",
		"where to reinforce", "study cascades", "run a Monte Carlo study", "estimate loss of load",
		"estimate LOLP",
	} {
		qs = append(qs, p, "Solve IEEE 30 and "+p, "Solve IEEE 30, then "+p)
	}
	qs = append(qs,
		"What is the current network status?",
		"Assess the quality of the solution",
		"What can you help me with?",
		"Show the load sensitivity price map",
		"Solve IEEE 118 case, then run contingency analysis and identify critical elements",
		"Solve IEEE 30 case, then run contingency analysis and identify critical elements for reinforcement",
		"Solve IEEE 30 and assess the solution quality",
		"what's the most critical contingencies in this network",
		"What are the most critical contingencies in IEEE 30?",
		"Which outages could trigger cascading failures in IEEE 57?",
		"Run a cascading failure study on IEEE 57 starting from the outage of line 7",
		"Compare economic versus security-constrained operation for IEEE 57",
		"Estimate the loss of load probability for IEEE 30 with a Monte Carlo study",
		"Analyze the reliability impact of losing the generator at bus 2",
		"Run a load sensitivity analysis on the marginal prices",
		"What is the sensitivity if we increase the load at bus 9 by 5 MW?",
		"Identify the top-5 most critical lines in case118 contingency analysis",
		"solve case 57; then show outages. Then assess cost",
		"Solve the OPF for ieee-300 and then run a monte-carlo LOLP study",
		"then",
		"then ",
		" and then ",
		"",
		// Non-ASCII: every regex runs, as the reference does.
		"Solve caſe 30, then run contingency analysis",
		"Solve IEEE 30 thEn run N-1",
		"Solve IEEE 30 thEn run n-K contingencies",
		"Solve IEEE 57 and run an N-K study",
		"Solve IEEE 118 — then show the top 5 outages",
		"Solve IEEE 14 and aſſess loſſ of load",
		"Solve IEEE 14, then ſhow the moſt critical outageſ",
	)
	return qs
}

func TestPlanMatchesReference(t *testing.T) {
	for _, q := range planCorpus() {
		if got, want := Plan(q), planRef(q); !reflect.DeepEqual(got, want) {
			t.Errorf("Plan(%q) = %+v, reference %+v", q, got, want)
		}
	}
}

func FuzzPlan(f *testing.F) {
	for _, q := range planCorpus() {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if got, want := Plan(q), planRef(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("Plan(%q) = %+v, reference %+v", q, got, want)
		}
	})
}

func BenchmarkPlan(b *testing.B) {
	qs := planCorpus()
	b.Run("filtered", func(b *testing.B) {
		i := 0
		for b.Loop() {
			Plan(qs[i%len(qs)])
			i++
		}
	})
	b.Run("reference", func(b *testing.B) {
		i := 0
		for b.Loop() {
			planRef(qs[i%len(qs)])
			i++
		}
	})
}
