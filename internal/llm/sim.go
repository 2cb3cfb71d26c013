package llm

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"time"

	"gridmind/internal/contingency"
)

// SimClient is a deterministic simulated function-calling model. It is
// stateless across calls, exactly like a real chat-completion API: every
// Complete derives its decision purely from the conversation so far —
// parse the user's intent, plan the minimal tool sequence, react to tool
// results, then narrate from the structured data.
type SimClient struct {
	profile Profile
}

// NewSim returns a simulated backend with the given behaviour profile.
func NewSim(p Profile) *SimClient { return &SimClient{profile: p} }

// Model implements Client.
func (s *SimClient) Model() string { return s.profile.Name }

// toolResult is one decoded tool message from the current turn.
type toolResult struct {
	name string
	data map[string]any
	err  string
}

// Complete implements Client.
func (s *SimClient) Complete(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	userIdx := lastUserIndex(req.Messages)
	if userIdx < 0 {
		// A request with no user turn is the caller's mistake, not a
		// backend fault — classify it as a 400 so gateways don't retry it.
		return nil, &StatusError{Code: 400, Msg: "conversation has no user message"}
	}
	in := parseIntent(req.Messages[userIdx].Content)
	results := decodeToolResults(req.Messages[userIdx+1:])
	avail := map[string]bool{}
	for _, t := range req.Tools {
		avail[t.Name] = true
	}

	msg := s.decide(in, results, avail)
	return s.respond(req, msg), nil
}

// decide implements the planning policy: which tool to call next, or the
// final narration once the needed structured results exist.
func (s *SimClient) decide(in intent, results []toolResult, avail map[string]bool) Message {
	if errorCount(results) >= 2 {
		return assistantText(s.narrateFailure(results))
	}
	// Route by the toolbox this agent advertises.
	switch {
	case avail["run_n1_contingency_analysis"]:
		return s.decideCA(in, results, avail)
	case avail["solve_acopf_case"]:
		return s.decideACOPF(in, results, avail)
	default:
		return assistantText("I have no registered tools for this request; please register the relevant analysis tools.")
	}
}

func (s *SimClient) decideACOPF(in intent, results []toolResult, avail map[string]bool) Message {
	if in.badCase != "" {
		return assistantText(fmt.Sprintf(
			"I could not complete the analysis: %q is not a supported test case. Supported systems are IEEE 14, 30, 57, 118 and 300.",
			in.badCase))
	}
	if in.compare && avail["compare_operation_strategies"] {
		if !hasResult(results, "compare_operation_strategies") {
			if in.caseName != "" && !hasResult(results, "solve_acopf_case") {
				return toolCallMsg("solve_acopf_case", map[string]any{"case_name": in.caseName})
			}
			return toolCallMsg("compare_operation_strategies", map[string]any{})
		}
		return assistantText(s.narrateCompare(results))
	}
	if in.sensitivity && avail["analyze_load_sensitivity"] {
		if !hasResult(results, "analyze_load_sensitivity") {
			if in.caseName != "" && !hasResult(results, "solve_acopf_case") {
				return toolCallMsg("solve_acopf_case", map[string]any{"case_name": in.caseName})
			}
			args := map[string]any{}
			if in.modify != nil {
				args["buses"] = []any{in.modify.bus}
				args["delta_mw"] = in.modify.sign * in.modify.value
			}
			return toolCallMsg("analyze_load_sensitivity", args)
		}
		return assistantText(s.narrateSensitivity(results))
	}
	if in.modify != nil {
		mod := in.modify
		if mod.relative && !hasResult(results, "get_network_status") {
			// Ground the delta against the current structured state first
			// ("retrieve current net status" in the paper's trace).
			return toolCallMsg("get_network_status", map[string]any{"bus": mod.bus})
		}
		if !hasResult(results, "modify_bus_load") {
			target := mod.value
			if mod.relative {
				cur, ok := busLoadFromStatus(results, mod.bus)
				if !ok {
					return assistantText(fmt.Sprintf(
						"I could not determine the current load at bus %d to apply the %+.1f MW change.",
						mod.bus, mod.sign*mod.value))
				}
				target = cur + mod.sign*mod.value
			}
			args := map[string]any{"bus": mod.bus, "p_mw": target}
			if mod.hasQ {
				args["q_mvar"] = mod.qValue
			}
			return toolCallMsg("modify_bus_load", args)
		}
		return assistantText(s.narrateModify(in, results))
	}
	if in.quality && avail["assess_solution_quality"] {
		if !hasResult(results, "assess_solution_quality") {
			if in.caseName != "" && !hasResult(results, "solve_acopf_case") {
				return toolCallMsg("solve_acopf_case", map[string]any{"case_name": in.caseName})
			}
			return toolCallMsg("assess_solution_quality", map[string]any{})
		}
		d := lastData(results, "assess_solution_quality")
		if d == nil {
			return assistantText("The quality assessment produced no structured result.")
		}
		var recs []string
		if raw, ok := d["recommendations"].([]any); ok {
			for _, r := range raw {
				if str, ok := r.(string); ok {
					recs = append(recs, str)
				}
			}
		}
		return assistantText(fmt.Sprintf(
			"Solution quality for %s (cost %s): %.1f/10 overall (convergence %.1f, constraints %.1f, economics %.1f, security %.1f). %s",
			d["case_name"], fmtMoney(f(d, "objective_cost")), f(d, "overall_score"),
			f(d, "convergence_quality"), f(d, "constraint_satisfaction"),
			f(d, "economic_efficiency"), f(d, "system_security"), strings.Join(recs, " ")))
	}
	if in.solve && in.caseName != "" {
		if !hasResult(results, "solve_acopf_case") {
			return toolCallMsg("solve_acopf_case", map[string]any{"case_name": in.caseName})
		}
		return assistantText(s.narrateSolve(in, results))
	}
	if in.status || in.quality {
		if !hasResult(results, "get_network_status") {
			return toolCallMsg("get_network_status", map[string]any{})
		}
		return assistantText(s.narrateStatus(results))
	}
	// Re-solve requests without an explicit case ("solve it again").
	if in.solve {
		if !hasResult(results, "get_network_status") {
			return toolCallMsg("get_network_status", map[string]any{})
		}
		if name, ok := caseFromStatus(results); ok {
			if !hasResult(results, "solve_acopf_case") {
				return toolCallMsg("solve_acopf_case", map[string]any{"case_name": name})
			}
			return assistantText(s.narrateSolve(in, results))
		}
		return assistantText("No case is loaded yet. Tell me which IEEE case to solve (14, 30, 57, 118 or 300).")
	}
	return assistantText("I can solve ACOPF cases, modify bus loads for what-if studies, and report network status. What would you like to analyze?")
}

func (s *SimClient) decideCA(in intent, results []toolResult, avail map[string]bool) Message {
	if in.badCase != "" {
		return assistantText(fmt.Sprintf(
			"I could not complete the analysis: %q is not a supported test case. Supported systems are IEEE 14, 30, 57, 118 and 300.",
			in.badCase))
	}
	if in.mc && avail["run_reliability_mc"] {
		if !hasResult(results, "solve_base_case") {
			args := map[string]any{}
			if in.caseName != "" {
				args["case_name"] = in.caseName
			}
			return toolCallMsg("solve_base_case", args)
		}
		if !hasResult(results, "run_reliability_mc") {
			return toolCallMsg("run_reliability_mc", map[string]any{"seed": 1})
		}
		return assistantText(s.narrateMC(results))
	}
	if in.cascade && avail["run_cascade_study"] {
		if !hasResult(results, "solve_base_case") {
			args := map[string]any{}
			if in.caseName != "" {
				args["case_name"] = in.caseName
			}
			return toolCallMsg("solve_base_case", args)
		}
		if !hasResult(results, "run_cascade_study") {
			args := map[string]any{}
			if in.branch >= 0 {
				args["branches"] = []any{in.branch}
			}
			if in.genOutBus >= 0 {
				args["gen_buses"] = []any{in.genOutBus}
			}
			return toolCallMsg("run_cascade_study", args)
		}
		return assistantText(s.narrateCascade(results))
	}
	if in.genOutBus >= 0 && avail["analyze_generator_outage"] {
		if !hasResult(results, "analyze_generator_outage") {
			return toolCallMsg("analyze_generator_outage", map[string]any{"bus": in.genOutBus})
		}
		d := lastData(results, "analyze_generator_outage")
		if d == nil {
			return assistantText("The generator outage analysis produced no structured result.")
		}
		desc, _ := d["description"].(string)
		return assistantText(fmt.Sprintf(
			"Generator outage analysis: %s Severity score %.2f; post-outage minimum voltage %.4f p.u.",
			desc, f(d, "severity"), f(d, "min_voltage_pu")))
	}
	specific := in.branch >= 0 || (in.fromBus >= 0 && in.toBus >= 0)
	if specific {
		if !hasResult(results, "analyze_specific_contingency") {
			args := map[string]any{}
			if in.branch >= 0 {
				args["branch"] = in.branch
			} else {
				args["from_bus"] = in.fromBus
				args["to_bus"] = in.toBus
			}
			return toolCallMsg("analyze_specific_contingency", args)
		}
		return assistantText(s.narrateSpecific(results))
	}
	if in.conting {
		if !hasResult(results, "solve_base_case") {
			args := map[string]any{}
			if in.caseName != "" {
				args["case_name"] = in.caseName
			}
			return toolCallMsg("solve_base_case", args)
		}
		if !hasResult(results, "run_n1_contingency_analysis") {
			strategy := "composite"
			if s.profile.Strategy == contingency.ThermalFirst {
				strategy = "thermal-first"
			}
			return toolCallMsg("run_n1_contingency_analysis", map[string]any{
				"top_k": in.topK, "strategy": strategy,
			})
		}
		return assistantText(s.narrateSweep(in, results))
	}
	if in.status {
		if !hasResult(results, "get_contingency_status") {
			return toolCallMsg("get_contingency_status", map[string]any{})
		}
		return assistantText(s.narrateCAStatus(results))
	}
	return assistantText("I run T-1 reliability assessments: full N-1 sweeps, specific outage analyses, and criticality rankings. Which study do you need?")
}

// respond wraps the decided message with simulated usage and latency,
// occasionally injecting a factual slip into final narrations (a
// misquoted figure) that the agent's audit layer must detect and repair
// against the stored structured results.
func (s *SimClient) respond(req *Request, msg Message) *Response {
	prompt := PromptTokens(req)
	st := s.stream(req)
	rngSlip := st.reader()
	if msg.Content != "" && len(msg.ToolCalls) == 0 && rngSlip.Float64() < s.profile.SlipRate {
		msg.Content = injectSlip(msg.Content, rngSlip)
	}
	var produced string
	if len(msg.ToolCalls) > 0 {
		raw, _ := json.Marshal(msg.ToolCalls)
		produced = string(raw)
	} else {
		produced = msg.Content
	}
	completion := EstimateTokens(produced)
	// Reasoning models "think" proportionally to verbosity even when the
	// visible completion is a short tool call.
	completion += int(40 * s.profile.Verbosity)

	rng := st.reader()
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

// stream derives a deterministic stream from the conversation state, so
// the same (model, salt, conversation) always behaves identically while
// different runs (salts) draw independent latencies.
func (s *SimClient) stream(req *Request) *stream {
	h := fnv.New64a()
	h.Write([]byte(s.profile.Name))
	fmt.Fprintf(h, "|%d|%d|", req.Salt, len(req.Messages))
	if i := lastUserIndex(req.Messages); i >= 0 {
		h.Write([]byte(req.Messages[i].Content))
	}
	st := &stream{}
	st.src.Seed(int64(h.Sum64()))
	return st
}

// stream is one seeded source whose draws every reader replays from the
// start: the slip and latency draws of a completion each read the stream
// as if it were freshly seeded, but the source is seeded once, lazily
// (the draws of rand.NewSource, see lazySource).
type stream struct {
	src   lazySource
	drawn []int64
}

// reader returns a generator positioned at the stream's first draw.
func (st *stream) reader() *rand.Rand { return rand.New(&replay{st: st}) }

// replay is one reader's position in a stream. Every rand.Rand method the
// simulator calls (Float64, NormFloat64, Intn) draws through Int63, so
// replaying Int63 replays the generator.
type replay struct {
	st  *stream
	pos int
}

func (r *replay) Int63() int64 {
	if r.pos == len(r.st.drawn) {
		r.st.drawn = append(r.st.drawn, r.st.src.Int63())
	}
	v := r.st.drawn[r.pos]
	r.pos++
	return v
}

func (r *replay) Seed(int64) { panic("llm: a replayed stream is seeded once") }

// --- conversation helpers ---

func lastUserIndex(msgs []Message) int {
	for i := len(msgs) - 1; i >= 0; i-- {
		if msgs[i].Role == RoleUser {
			return i
		}
	}
	return -1
}

// decodeToolResults reads the turn's tool messages, decoding Content only
// when the sender did not hand it over already decoded.
func decodeToolResults(msgs []Message) []toolResult {
	var out []toolResult
	for _, m := range msgs {
		if m.Role != RoleTool {
			continue
		}
		tr := toolResult{name: m.Name}
		data := m.Decoded
		if data == nil && json.Unmarshal([]byte(m.Content), &data) != nil {
			tr.err = "unparseable tool result"
		} else if e, ok := data["error"].(string); ok {
			tr.err = e
		} else {
			tr.data = data
		}
		out = append(out, tr)
	}
	return out
}

func hasResult(results []toolResult, name string) bool {
	for _, r := range results {
		if r.name == name && r.err == "" {
			return true
		}
	}
	return false
}

func lastData(results []toolResult, name string) map[string]any {
	for i := len(results) - 1; i >= 0; i-- {
		if results[i].name == name && results[i].data != nil {
			return results[i].data
		}
	}
	return nil
}

func errorCount(results []toolResult) int {
	n := 0
	for _, r := range results {
		if r.err != "" {
			n++
		}
	}
	return n
}

func busLoadFromStatus(results []toolResult, bus int) (float64, bool) {
	d := lastData(results, "get_network_status")
	if d == nil {
		return 0, false
	}
	if v, ok := d["bus_load_mw"].(float64); ok {
		return v, true
	}
	return 0, false
}

func caseFromStatus(results []toolResult) (string, bool) {
	d := lastData(results, "get_network_status")
	if d == nil {
		return "", false
	}
	name, ok := d["case_name"].(string)
	return name, ok && name != ""
}

func hasCATool(tools []ToolDef) bool {
	for _, t := range tools {
		if t.Name == "run_n1_contingency_analysis" {
			return true
		}
	}
	return false
}

func toolCallMsg(name string, args map[string]any) Message {
	return Message{
		Role:      RoleAssistant,
		ToolCalls: []ToolCall{{ID: "call-" + name, Name: name, Args: args}},
	}
}

func assistantText(text string) Message {
	return Message{Role: RoleAssistant, Content: text}
}

func (s *SimClient) narrateFailure(results []toolResult) string {
	var last string
	for _, r := range results {
		if r.err != "" {
			last = r.err
		}
	}
	return "I could not complete the analysis: " + last +
		". Please check the request (supported cases: IEEE 14, 30, 57, 118, 300) and try again."
}

// fmtMoney renders costs the way narrations quote them.
func fmtMoney(v float64) string { return fmt.Sprintf("$%.2f/h", v) }

var reMoney = regexp.MustCompile(`\$([0-9]+(?:\.[0-9]{2}))/h`)

// injectSlip perturbs the first quoted cost figure by ±0.3-0.8%, the
// "plausible but incorrect" hallucination class the paper instruments.
func injectSlip(text string, rng *rand.Rand) string {
	loc := reMoney.FindStringSubmatchIndex(text)
	if loc == nil {
		return text
	}
	val, err := strconv.ParseFloat(text[loc[2]:loc[3]], 64)
	if err != nil || val == 0 {
		return text
	}
	factor := 1 + (0.003+0.005*rng.Float64())*signOf(rng)
	return text[:loc[2]] + fmt.Sprintf("%.2f", val*factor) + text[loc[3]:]
}

func signOf(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

func f(d map[string]any, key string) float64 {
	v, _ := d[key].(float64)
	return v
}

func (s *SimClient) narrateSolve(in intent, results []toolResult) string {
	d := lastData(results, "solve_acopf_case")
	if d == nil {
		return "The solver returned no structured result to report."
	}
	cost := f(d, "objective_cost")
	var b strings.Builder
	fmt.Fprintf(&b, "Solved %s: the AC optimal power flow converged in %.0f iterations (%s). ",
		d["case_name"], f(d, "iterations"), d["method"])
	fmt.Fprintf(&b, "Total generation cost is %s for %.2f MW dispatched (%.2f MW losses). ",
		fmtMoney(cost), f(d, "total_gen_mw"), f(d, "loss_mw"))
	fmt.Fprintf(&b, "Voltages span %.4f-%.4f p.u.", f(d, "min_voltage_pu"), f(d, "max_voltage_pu"))
	if f(d, "max_thermal_loading_pct") > 0 {
		fmt.Fprintf(&b, "; the most loaded branch sits at %.2f%% of its rating", f(d, "max_thermal_loading_pct"))
	}
	b.WriteString(".")
	if s.profile.Verbosity > 1.1 {
		fmt.Fprintf(&b, " Locational marginal prices range from %.2f to %.2f $/MWh across the network, and %v branch limit(s) are binding.",
			f(d, "lmp_min"), f(d, "lmp_max"), d["binding_flow_limits"])
	}
	if rec, _ := d["recovery_used"].(bool); rec {
		b.WriteString(" Note: the primary solver needed a recovery path; results come from the validated fallback.")
	}
	b.WriteString(" All figures are pulled from the stored solver output.")
	return b.String()
}

func (s *SimClient) narrateModify(in intent, results []toolResult) string {
	d := lastData(results, "modify_bus_load")
	if d == nil {
		return "The load modification produced no structured result."
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Updated bus %d load from %.2f MW to %.2f MW and re-solved the ACOPF. ",
		in.modify.bus, f(d, "previous_load_mw"), f(d, "new_load_mw"))
	fmt.Fprintf(&b, "New generation cost: %s", fmtMoney(f(d, "objective_cost")))
	if delta, ok := d["cost_delta"].(float64); ok {
		fmt.Fprintf(&b, " (%+.2f $/h versus the previous solution)", delta)
	}
	fmt.Fprintf(&b, ". Voltages remain within %.4f-%.4f p.u.",
		f(d, "min_voltage_pu"), f(d, "max_voltage_pu"))
	if f(d, "max_thermal_loading_pct") > 0 {
		fmt.Fprintf(&b, " with worst loading %.2f%%", f(d, "max_thermal_loading_pct"))
	}
	b.WriteString(".")
	return b.String()
}

func (s *SimClient) narrateStatus(results []toolResult) string {
	d := lastData(results, "get_network_status")
	if d == nil {
		return "No status information is available."
	}
	if loaded, _ := d["case_loaded"].(bool); !loaded {
		return "No case is currently loaded. Ask me to solve one of the IEEE cases to begin."
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Active case %s: %.0f buses, %.0f generators, %.0f loads, %.0f AC lines and %.0f transformers. ",
		d["case_name"], f(d, "buses"), f(d, "generators"), f(d, "loads"), f(d, "ac_lines"), f(d, "transformers"))
	fmt.Fprintf(&b, "Total demand %.2f MW", f(d, "total_load_mw"))
	if mods := f(d, "modifications"); mods > 0 {
		fmt.Fprintf(&b, " with %.0f modification(s) applied", mods)
	}
	b.WriteString(".")
	if cost, ok := d["last_objective_cost"].(float64); ok {
		fresh, _ := d["solution_fresh"].(bool)
		state := "stale (state changed since)"
		if fresh {
			state = "fresh"
		}
		fmt.Fprintf(&b, " A solved ACOPF exists with generation cost %s (%s).", fmtMoney(cost), state)
	}
	return b.String()
}

func (s *SimClient) narrateSweep(in intent, results []toolResult) string {
	d := lastData(results, "run_n1_contingency_analysis")
	if d == nil {
		return "The contingency sweep produced no structured result."
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Completed the T-1 sweep on %s: %.0f outages analyzed — %.0f secure, %.0f with overloads, %.0f causing islanding, %.0f unsolvable. ",
		d["case_name"], f(d, "total_outages"), f(d, "secure"), f(d, "with_overload"), f(d, "islanding"), f(d, "unsolved"))
	crit, _ := d["critical"].([]any)
	if len(crit) > 0 {
		fmt.Fprintf(&b, "Top %d critical elements (%s ranking): ", len(crit), d["strategy"])
		parts := make([]string, 0, len(crit))
		for _, c := range crit {
			cm, _ := c.(map[string]any)
			if cm == nil {
				continue
			}
			parts = append(parts, fmt.Sprintf("branch %.0f (%.0f-%.0f, severity %.1f)",
				f(cm, "branch"), f(cm, "from_bus"), f(cm, "to_bus"), f(cm, "severity")))
		}
		b.WriteString(strings.Join(parts, ", "))
		fmt.Fprintf(&b, ". Maximum post-contingency overload: %.2f%%.", f(d, "max_overload_pct"))
	}
	if s.profile.Verbosity > 1.1 && len(crit) > 1 {
		first, _ := crit[0].(map[string]any)
		second, _ := crit[1].(map[string]any)
		if first != nil && second != nil {
			fmt.Fprintf(&b, " Outage of branch %.0f causes %.0f overload(s) versus %.0f for branch %.0f — therefore it ranks higher.",
				f(first, "branch"), f(first, "overloads"), f(second, "overloads"), f(second, "branch"))
		}
	}
	if recs, _ := d["recommendations"].([]any); len(recs) > 0 {
		if rm, _ := recs[0].(map[string]any); rm != nil {
			if rationale, _ := rm["rationale"].(string); rationale != "" {
				b.WriteString(" Top mitigation: " + rationale + ".")
				return b.String()
			}
		}
	}
	b.WriteString(" Recommend reinforcing the top-ranked corridors or adding reactive support at the depressed buses.")
	return b.String()
}

func (s *SimClient) narrateSpecific(results []toolResult) string {
	d := lastData(results, "analyze_specific_contingency")
	if d == nil {
		return "The outage analysis produced no structured result."
	}
	desc, _ := d["description"].(string)
	var b strings.Builder
	b.WriteString("Outage analysis: " + desc)
	fmt.Fprintf(&b, " Severity score %.2f; post-contingency minimum voltage %.4f p.u.",
		f(d, "severity"), f(d, "min_voltage_pu"))
	if f(d, "load_shed_mw") > 0 {
		fmt.Fprintf(&b, " Estimated %.2f MW of load shedding required.", f(d, "load_shed_mw"))
	}
	return b.String()
}

func (s *SimClient) narrateCompare(results []toolResult) string {
	d := lastData(results, "compare_operation_strategies")
	if d == nil {
		return "The strategy comparison produced no structured result."
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Economic vs security-constrained operation on %s: ", d["case_name"])
	fmt.Fprintf(&b, "unconstrained dispatch costs %s; the security-constrained dispatch costs %s — a security premium of %.2f $/h (%.2f%%). ",
		fmtMoney(f(d, "economic_cost")), fmtMoney(f(d, "secure_cost")),
		f(d, "security_premium"), f(d, "premium_pct"))
	fmt.Fprintf(&b, "Preventive redispatch over %.0f round(s) reduced post-contingency violations from %.0f to %.0f",
		f(d, "rounds"), f(d, "violations_before"), f(d, "violations_after"))
	if secure, _ := d["fully_secure"].(bool); secure {
		b.WriteString("; the final dispatch is fully N-1 secure.")
	} else {
		b.WriteString("; the remaining violations are load-driven and need corrective actions rather than redispatch.")
	}
	return b.String()
}

func (s *SimClient) narrateSensitivity(results []toolResult) string {
	d := lastData(results, "analyze_load_sensitivity")
	if d == nil {
		return "The sensitivity analysis produced no structured result."
	}
	rows, _ := d["impacts"].([]any)
	var b strings.Builder
	fmt.Fprintf(&b, "Load sensitivity on %s (%.1f MW probes): ", d["case_name"], f(d, "delta_mw"))
	parts := make([]string, 0, len(rows))
	for _, r := range rows {
		rm, _ := r.(map[string]any)
		if rm == nil {
			continue
		}
		parts = append(parts, fmt.Sprintf("bus %.0f costs %.2f $/MWh at the margin",
			f(rm, "bus_id"), f(rm, "cost_per_mw")))
	}
	b.WriteString(strings.Join(parts, "; "))
	fmt.Fprintf(&b, ". First-order LMP predictions agree with exact re-solves to within %.1f%% on average.",
		100*f(d, "lmp_consistency_error"))
	return b.String()
}

func (s *SimClient) narrateCAStatus(results []toolResult) string {
	d := lastData(results, "get_contingency_status")
	if d == nil {
		return "No contingency status available."
	}
	if avail, _ := d["sweep_available"].(bool); !avail {
		return "No contingency sweep has been run yet in this session. Ask for an N-1 analysis to begin."
	}
	fresh, _ := d["sweep_fresh"].(bool)
	state := "stale — the network changed since it ran"
	if fresh {
		state = "fresh for the current network state"
	}
	return fmt.Sprintf("A contingency sweep exists (%s): %.0f outages, %.0f secure, %.0f with overloads. Cache holds %.0f entries (%.0f hits / %.0f misses).",
		state, f(d, "total_outages"), f(d, "secure"), f(d, "with_overload"),
		f(d, "cache_entries"), f(d, "cache_hits"), f(d, "cache_misses"))
}

func (s *SimClient) narrateCascade(results []toolResult) string {
	d := lastData(results, "run_cascade_study")
	if d == nil {
		return "The cascade study produced no structured result."
	}
	var b strings.Builder
	if mode, _ := d["mode"].(string); mode == "sweep" {
		fmt.Fprintf(&b, "Cascade sweep on %s: %.0f seed outages studied (%.0f screened out as non-cascading) — %.0f stable, %.0f cascading beyond the seed, %.0f islanding, %.0f collapsing.",
			d["case_name"], f(d, "seeds"), f(d, "screened"), f(d, "stable"),
			f(d, "cascaded"), f(d, "islanded"), f(d, "collapsed"))
		fmt.Fprintf(&b, " Worst seed: branch %.0f (severity %.1f, up to %.2f MW shed).",
			f(d, "worst_seed"), f(d, "worst_severity"), f(d, "max_shed_mw"))
		return b.String()
	}
	outcome, _ := d["outcome"].(string)
	fmt.Fprintf(&b, "Cascade study on %s: outcome %s after %.0f propagation round(s).",
		d["case_name"], outcome, f(d, "depth"))
	if seq, _ := d["trip_sequence"].([]any); len(seq) > 0 {
		parts := make([]string, 0, len(seq))
		for _, v := range seq {
			parts = append(parts, fmt.Sprintf("%.0f", v))
		}
		fmt.Fprintf(&b, " Trip sequence: branches %s.", strings.Join(parts, " → "))
	}
	if shed := f(d, "load_shed_mw"); shed > 0 {
		fmt.Fprintf(&b, " Estimated %.2f MW of load shed.", shed)
	}
	fmt.Fprintf(&b, " Severity score %.2f.", f(d, "severity"))
	return b.String()
}

func (s *SimClient) narrateMC(results []toolResult) string {
	d := lastData(results, "run_reliability_mc")
	if d == nil {
		return "The Monte Carlo reliability run produced no structured result."
	}
	lol, _ := d["loss_of_load"].(map[string]any)
	ovl, _ := d["overload"].(map[string]any)
	var b strings.Builder
	fmt.Fprintf(&b, "Monte Carlo reliability on %s: %.0f draws (seed %.0f).", d["case_name"], f(d, "samples"), f(d, "seed"))
	if lol != nil {
		fmt.Fprintf(&b, " Loss-of-load probability %.4f (95%% CI %.4f–%.4f).", f(lol, "p"), f(lol, "lo"), f(lol, "hi"))
	}
	if ovl != nil {
		fmt.Fprintf(&b, " Overload probability %.4f (95%% CI %.4f–%.4f).", f(ovl, "p"), f(ovl, "lo"), f(ovl, "hi"))
	}
	fmt.Fprintf(&b, " Expected load shed %.2f MW per draw.", f(d, "mean_shed_mw"))
	return b.String()
}
