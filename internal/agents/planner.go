package agents

import (
	"regexp"
	"strings"
	"unicode/utf8"
)

// Agent names used in routing.
const (
	ACOPFAgentName = "acopf"
	CAAgentName    = "contingency"
)

// Assignment is one planned sub-task: which agent handles which query.
type Assignment struct {
	Agent string `json:"agent"`
	Query string `json:"query"`
}

// Plan analyzes a user request and decomposes it into per-agent
// assignments (the paper's planner agent). Multi-step requests like
// "solve IEEE 118, then run contingency analysis" split into a sequence
// executed over the shared session context.
func Plan(query string) []Assignment {
	parts := splitSteps(query)
	var out []Assignment
	lastCase := ""
	for _, p := range parts {
		agent := classify(p)
		// Later steps inherit the case mention from earlier steps so the
		// CA agent knows which network the conversation is about; the
		// shared session would resolve it anyway, but explicit context
		// mirrors the paper's "shift from ACOPF agent to CA agent with
		// shared context".
		if c := findCase(p); c != "" {
			lastCase = c
		} else if lastCase != "" && agent == CAAgentName {
			p = p + " (network: " + lastCase + ")"
		}
		out = append(out, Assignment{Agent: agent, Query: strings.TrimSpace(p)})
	}
	return out
}

// The planner's regexes, each with its anchors: lower-cased literals one
// of which every match on ASCII text holds. On ASCII text a regex none of
// whose anchors occurs in the lower-cased text cannot match, so it is
// skipped. (?i) also folds ſ onto s and the Kelvin sign onto k, so
// non-ASCII text runs every regex.
var (
	reSplit       = regexp.MustCompile(`(?i)\s*(?:[,;]\s*|\.\s+)?(?:and\s+)?then\s+`)
	reCasePlanner = regexp.MustCompile(`(?i)(?:case|ieee)[\s-]*\d+`)
	reCAWords     = regexp.MustCompile(`(?i)contingenc|critical|n-1|t-1|n-k|outage|reliab|vulnerab|reinforc|cascad|monte[\s-]carlo|loss[\s-]of[\s-]load|lolp`)

	splitAnchors = []string{"then"}
	caseAnchors  = []string{"case", "ieee"}
	caAnchors    = []string{"contingenc", "critical", "n-1", "t-1", "n-k", "outage", "reliab", "vulnerab", "reinforc", "cascad", "monte", "loss", "lolp"}
)

// mayMatch reports whether a regex with the given anchors can match s.
func mayMatch(s string, anchors []string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return true
		}
	}
	lower := strings.ToLower(s)
	for _, a := range anchors {
		if strings.Contains(lower, a) {
			return true
		}
	}
	return false
}

func isCAStep(s string) bool { return mayMatch(s, caAnchors) && reCAWords.MatchString(s) }

func findCase(s string) string {
	if !mayMatch(s, caseAnchors) {
		return ""
	}
	return reCasePlanner.FindString(s)
}

// splitSteps breaks a compound request on sequential connectives.
func splitSteps(query string) []string {
	parts := []string{query}
	if mayMatch(query, splitAnchors) {
		parts = reSplit.Split(query, -1)
	}
	var out []string
	for _, p := range parts {
		if s := strings.TrimSpace(p); s != "" {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return []string{query}
	}
	// A single clause that spans both domains still becomes two steps:
	// "solve IEEE 118 and identify critical contingencies".
	if len(out) == 1 && isCAStep(out[0]) && hasSolveIntent(out[0]) {
		return splitMixed(out[0])
	}
	return out
}

func hasSolveIntent(s string) bool {
	lower := strings.ToLower(s)
	return (strings.Contains(lower, "solve") || strings.Contains(lower, "opf")) &&
		findCase(s) != ""
}

// splitMixed cuts a mixed-domain clause at the contingency keyword.
func splitMixed(s string) []string {
	loc := reCAWords.FindStringIndex(s)
	if loc == nil {
		return []string{s}
	}
	// Walk back to the preceding connective if any.
	cut := loc[0]
	for _, conn := range []string{" and ", ", "} {
		if i := strings.LastIndex(strings.ToLower(s[:loc[0]]), conn); i >= 0 && loc[0]-i < 30 {
			cut = i
			break
		}
	}
	first := strings.TrimSpace(s[:cut])
	second := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s[cut:]), "and "))
	if first == "" || second == "" {
		return []string{s}
	}
	return []string{first, "run " + second}
}

// classify routes one step to an agent by domain keywords; contingency
// vocabulary wins because reliability work subsumes a base-case solve,
// and every other step goes to the ACOPF agent.
func classify(step string) string {
	if isCAStep(step) {
		return CAAgentName
	}
	return ACOPFAgentName
}
