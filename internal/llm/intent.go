package llm

import (
	"regexp"
	"strconv"
	"strings"
)

// intent is the structured reading of a user request that the simulated
// models extract before planning tool calls (the paper's "intent and
// entity extraction" step, §3.1).
type intent struct {
	caseName    string // canonical case name, "" when absent
	badCase     string // case-like mention that is not supported
	solve       bool
	status      bool
	conting     bool
	topK        int
	branch      int // specific outage branch index, -1 when absent
	fromBus     int // outage specified as a bus pair, -1 when absent
	toBus       int
	modify      *modIntent
	quality     bool
	sensitivity bool
	compare     bool
	genOutBus   int // generator outage at this bus, -1 when absent
	cascade     bool
	mc          bool
}

type modIntent struct {
	bus      int
	value    float64 // MW
	qValue   float64 // MVAr, NaN when unspecified
	hasQ     bool
	relative bool // "by" (delta) vs "to" (absolute)
	sign     float64
}

var (
	reCase    = regexp.MustCompile(`(?i)(?:case|ieee)[\s-]*(\d+)`)
	reModify  = regexp.MustCompile(`(?i)(increase|raise|set|change|modify|decrease|lower|reduce)\s+(?:the\s+)?load\s+(?:at|for|on)?\s*bus\s+(\d+)\s+(to|by)\s+([0-9]+(?:\.[0-9]+)?)\s*mw`)
	reTopK    = regexp.MustCompile(`(?i)top[\s-]*(\d+)`)
	reMostK   = regexp.MustCompile(`(?i)(\d+)\s+most\s+critical`)
	reBranch  = regexp.MustCompile(`(?i)(?:branch|line|transformer)\s*#?\s*(\d+)`)
	reBusPair = regexp.MustCompile(`(?i)(?:line|branch|transformer)\s+between\s+bus(?:es)?\s+(\d+)\s+and\s+(\d+)`)
	reQVal    = regexp.MustCompile(`(?i)([0-9]+(?:\.[0-9]+)?)\s*mvar`)
	reGenOut  = regexp.MustCompile(`(?i)(?:loss of|losing|outage of|trip(?:ping)?)\s+(?:the\s+)?(?:generator|unit|machine)\s+(?:at\s+bus\s+)?(\d+)`)
)

// parseIntent extracts entities from one user message.
func parseIntent(text string) intent {
	in := intent{topK: 5, branch: -1, fromBus: -1, toBus: -1, genOutBus: -1}
	lower := strings.ToLower(text)
	hasAny := func(subs ...string) bool {
		for _, s := range subs {
			if strings.Contains(lower, s) {
				return true
			}
		}
		return false
	}
	// A (?i) regex can only match ASCII text where lower holds one of its
	// literal anchors, so find skips it elsewhere. (?i) also folds ſ and
	// the Kelvin sign onto s and k: non-ASCII text runs every regex.
	ascii := isASCII(text)
	may := func(anchors ...string) bool { return !ascii || hasAny(anchors...) }
	find := func(re *regexp.Regexp, anchors ...string) []string {
		if !may(anchors...) {
			return nil
		}
		return re.FindStringSubmatch(text)
	}

	if m := find(reCase, "case", "ieee"); m != nil {
		switch m[1] {
		case "14", "30", "57", "118", "300":
			in.caseName = "case" + m[1]
		default:
			in.badCase = m[0]
		}
	}
	in.solve = hasAny("solve", "optimal power flow", "opf", "optimize", "optimise", "dispatch")
	in.status = hasAny("status", "current state", "network info", "what is loaded", "session")
	in.conting = hasAny("contingency", "contingencies", "critical", "n-1", "t-1", "outage", "reliability", "vulnerab")
	in.quality = hasAny("quality", "how good", "assess")
	in.sensitivity = hasAny("sensitivity", "sensitivities", "marginal price", "lmp", "impact of load", "price map")
	in.compare = hasAny("security-constrained", "secure dispatch", "scopf", "security premium") ||
		(hasAny("compare") && hasAny("economic", "secure"))
	in.cascade = hasAny("cascade", "cascading", "n-k", "domino", "trip sequence")
	in.mc = hasAny("monte carlo", "monte-carlo", "lolp", "loss of load", "loss-of-load", "probabilistic")

	if may("bus") { // reModify holds both "load" and "bus"
		if m := find(reModify, "load"); m != nil {
			verb := strings.ToLower(m[1])
			bus, _ := strconv.Atoi(m[2])
			val, _ := strconv.ParseFloat(m[4], 64)
			mi := &modIntent{bus: bus, value: val, relative: strings.EqualFold(m[3], "by"), sign: 1}
			if verb == "decrease" || verb == "lower" || verb == "reduce" {
				mi.sign = -1
			}
			if qm := find(reQVal, "mvar"); qm != nil {
				mi.qValue, _ = strconv.ParseFloat(qm[1], 64)
				mi.hasQ = true
			}
			in.modify = mi
		}
	}

	if m := find(reTopK, "top"); m != nil {
		if k, err := strconv.Atoi(m[1]); err == nil && k > 0 && k <= 100 {
			in.topK = k
		}
	} else if m := find(reMostK, "most"); m != nil {
		if k, err := strconv.Atoi(m[1]); err == nil && k > 0 && k <= 100 {
			in.topK = k
		}
	}

	if m := find(reGenOut, "generator", "unit", "machine"); m != nil {
		in.genOutBus, _ = strconv.Atoi(m[1])
	}
	if m := find(reBusPair, "between"); m != nil {
		in.fromBus, _ = strconv.Atoi(m[1])
		in.toBus, _ = strconv.Atoi(m[2])
	} else if in.conting || in.cascade {
		// A bare branch number only counts when the phrasing is about an
		// outage, not e.g. "line limits".
		if m := find(reBranch, "branch", "line", "transformer"); m != nil && hasAny("outage", "remove", "removing", "trip", "take out", "analyze", "analyse", "cascade", "cascading") {
			in.branch, _ = strconv.Atoi(m[1])
		}
	}
	return in
}

// isASCII reports whether s holds only ASCII bytes.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
