package llm

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseIntentRef is the unfiltered intent parser: every regex runs on
// every message. parseIntent skips a regex on ASCII text without its
// literal anchor and must agree with this reference on all input.
func parseIntentRef(text string) intent {
	in := intent{topK: 5, branch: -1, fromBus: -1, toBus: -1, genOutBus: -1}
	lower := strings.ToLower(text)

	if m := reCase.FindStringSubmatch(text); m != nil {
		switch m[1] {
		case "14", "30", "57", "118", "300":
			in.caseName = "case" + m[1]
		default:
			in.badCase = m[0]
		}
	}
	hasAny := func(subs ...string) bool {
		for _, s := range subs {
			if strings.Contains(lower, s) {
				return true
			}
		}
		return false
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

	if m := reModify.FindStringSubmatch(text); m != nil {
		verb := strings.ToLower(m[1])
		bus, _ := strconv.Atoi(m[2])
		val, _ := strconv.ParseFloat(m[4], 64)
		mi := &modIntent{bus: bus, value: val, relative: strings.EqualFold(m[3], "by"), sign: 1}
		if verb == "decrease" || verb == "lower" || verb == "reduce" {
			mi.sign = -1
		}
		if qm := reQVal.FindStringSubmatch(text); qm != nil {
			mi.qValue, _ = strconv.ParseFloat(qm[1], 64)
			mi.hasQ = true
		}
		in.modify = mi
	}

	if m := reTopK.FindStringSubmatch(text); m != nil {
		if k, err := strconv.Atoi(m[1]); err == nil && k > 0 && k <= 100 {
			in.topK = k
		}
	} else if m := reMostK.FindStringSubmatch(text); m != nil {
		if k, err := strconv.Atoi(m[1]); err == nil && k > 0 && k <= 100 {
			in.topK = k
		}
	}

	if m := reGenOut.FindStringSubmatch(text); m != nil {
		in.genOutBus, _ = strconv.Atoi(m[1])
	}
	if m := reBusPair.FindStringSubmatch(text); m != nil {
		in.fromBus, _ = strconv.Atoi(m[1])
		in.toBus, _ = strconv.Atoi(m[2])
	} else if in.conting || in.cascade {
		if m := reBranch.FindStringSubmatch(text); m != nil && hasAny("outage", "remove", "removing", "trip", "take out", "analyze", "analyse", "cascade", "cascading") {
			in.branch, _ = strconv.Atoi(m[1])
		}
	}
	return in
}

// intentCorpus is every query template of the end-to-end benchmark
// (bench/e2e/script.go) at several parameter values, the conversation
// tests' phrasings, and non-ASCII text on which (?i) folds ſ onto s and
// the Kelvin sign onto k.
func intentCorpus() []string {
	var qs []string
	for _, c := range []int{14, 30, 57, 118, 300, 999} {
		qs = append(qs, fmt.Sprintf("Solve IEEE %d", c))
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
	qs = append(qs,
		"What is the current network status?",
		"Assess the quality of the solution",
		"What can you help me with?",
		"Show the load sensitivity price map",
		"Increase the load for bus 10 to 50MW",
		"Set the load at bus 4 to 30 MW and 12.5 MVAr",
		"what's the most critical contingencies in this network",
		"show the 4 most critical outages",
		"Analyze the line between bus 1 and 2",
		"What happens if the transformer between buses 4 and 7 trips",
		"Analyze the reliability impact of losing the generator at bus 2",
		"Trip the unit at bus 3 and run a cascade study",
		"Run a cascade study starting with branch 7 on IEEE 30",
		"Run a Monte Carlo loss-of-load study on case 57",
		"Compare economic and secure dispatch on IEEE 57",
		"What is the sensitivity if we increase the load at bus 9 by 5 MW?",
		"Solve IEEE 30 and assess the solution quality",
		"top-12 line #5 outage",
		"",
		// Non-ASCII: every regex runs, as the reference does.
		"Solve caſe 30",
		"Increaſe the load at buſ 9 by 3 MW",
		"Show the 3 moſt critical contingencies",
		"Analyze the line between buſes 1 and 2",
		"Analyze the outage of tranſformer 12",
		"Loſing the machine at bus 5",
		"Show the top 4 (K) contingencies on IEEE 57",
		"Solve IEEE 118 — now",
	)
	return qs
}

func TestParseIntentMatchesReference(t *testing.T) {
	for _, q := range intentCorpus() {
		if got, want := parseIntent(q), parseIntentRef(q); !reflect.DeepEqual(got, want) {
			t.Errorf("parseIntent(%q) = %+v, reference %+v", q, got, want)
		}
	}
}

func FuzzParseIntent(f *testing.F) {
	for _, q := range intentCorpus() {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if got, want := parseIntent(q), parseIntentRef(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("parseIntent(%q) = %+v, reference %+v", q, got, want)
		}
	})
}

// rngRef seeds a fresh generator from the conversation state, the way
// respondRef seeds one for the slip draw and another for the latency draw.
func rngRef(s *SimClient, req *Request) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(s.profile.Name))
	fmt.Fprintf(h, "|%d|%d|", req.Salt, len(req.Messages))
	if i := lastUserIndex(req.Messages); i >= 0 {
		h.Write([]byte(req.Messages[i].Content))
	}
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// respondRef is respond with two independently seeded generators, one
// per draw. respond seeds once and replays one stream to both.
func respondRef(s *SimClient, req *Request, msg Message) *Response {
	prompt := PromptTokens(req)
	rngSlip := rngRef(s, req)
	if msg.Content != "" && len(msg.ToolCalls) == 0 && rngSlip.Float64() < s.profile.SlipRate {
		msg.Content = injectSlip(msg.Content, rngSlip)
	}
	produced := msg.Content
	if len(msg.ToolCalls) > 0 {
		raw, _ := json.Marshal(msg.ToolCalls)
		produced = string(raw)
	}
	completion := EstimateTokens(produced) + int(40*s.profile.Verbosity)
	rng := rngRef(s, req)
	domain := s.profile.ACOPFCallSec
	if hasCATool(req.Tools) {
		domain = s.profile.CACallSec
	}
	mean := domain + s.profile.PerKTokenSec*float64(prompt+completion)/1000
	lat := mean * math.Exp(s.profile.Jitter*rng.NormFloat64())
	return &Response{
		Message: msg,
		Usage:   Usage{PromptTokens: prompt, CompletionTokens: completion},
		Latency: time.Duration(lat * float64(time.Second)),
	}
}

// TestSimDrawsMatchTwoSeededGenerators: every simulated latency, slip
// decision and slipped figure equals what two generators seeded from the
// same conversation state produce.
func TestSimDrawsMatchTwoSeededGenerators(t *testing.T) {
	narration := assistantText("Solved case14: cost $8081.53/h for 259.00 MW.")
	call := toolCallMsg("solve_acopf_case", map[string]any{"case_name": "case14"})
	slips := 0
	for _, p := range Profiles() {
		for _, slipRate := range []float64{p.SlipRate, 0.5, 1} {
			p.SlipRate = slipRate
			s := NewSim(p)
			for salt := int64(0); salt < 40; salt++ {
				for _, tools := range [][]ToolDef{acopfTools(), caTools()} {
					for _, msg := range []Message{narration, call} {
						req := userReq(tools, fmt.Sprintf("Solve IEEE 14 (ask %d)", salt))
						req.Salt = salt
						got, want := s.respond(req, msg), respondRef(s, req, msg)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s salt %d: respond %+v, reference %+v", p.Name, salt, got, want)
						}
						if got.Message.Content != msg.Content {
							slips++
						}
					}
				}
			}
		}
	}
	if slips == 0 {
		t.Fatal("no completion slipped: the slip draws went untested")
	}
}
