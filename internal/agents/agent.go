// Package agents implements GridMind's agent layer: the reason-act-reflect
// loop that binds an LLM backend to the validated tool registry, the
// narration audit that pins every cited number to stored structured
// results, and the planner/coordinator pair that routes multi-step
// requests across the ACOPF and contingency-analysis agents over a shared
// session context (§3.1–3.4).
//
// The planner routes by keyword regexes, and on ASCII text it runs a
// regex only when the lower-cased text holds one of the regex's literal
// anchors ("then", "case"/"ieee", the contingency vocabulary); a regex
// without its anchor cannot match. Non-ASCII text runs every regex.
// planRef in the tests is the unfiltered planner that FuzzPlan holds it
// to.
package agents

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"gridmind/internal/llm"
	"gridmind/internal/metrics"
	"gridmind/internal/simclock"
	"gridmind/internal/tools"
)

// Step is one action inside a turn: a tool invocation or the narration.
type Step struct {
	Kind    string         `json:"kind"` // "tool_call" or "narration"
	Tool    string         `json:"tool,omitempty"`
	Args    map[string]any `json:"args,omitempty"`
	Result  any            `json:"result,omitempty"`
	Err     string         `json:"error,omitempty"`
	LLMLat  time.Duration  `json:"llm_latency_ns"`
	ToolLat time.Duration  `json:"tool_latency_ns"`
}

// Turn is the structured record of one agent interaction; the paper's
// instrumentation bench logs exactly these quantities.
type Turn struct {
	Agent string `json:"agent"`
	Model string `json:"model"`
	Query string `json:"query"`
	Reply string `json:"reply"`
	Steps []Step `json:"steps"`
	// Latency is total turn time on the session clock: LLM latencies
	// (simulated or real) plus solver execution.
	Latency          time.Duration `json:"latency_ns"`
	PromptTokens     int           `json:"prompt_tokens"`
	CompletionTokens int           `json:"completion_tokens"`
	ToolCalls        int           `json:"tool_calls"`
	ValidationErrors int           `json:"validation_errors"`
	FactualSlips     int           `json:"factual_slips"`
	Recoveries       int           `json:"recoveries"`
	Success          bool          `json:"success"`
}

// Agent runs the deterministic loop: parse → plan (LLM) → invoke typed
// tools → validate → narrate → persist.
type Agent struct {
	Name         string
	SystemPrompt string
	Client       llm.Client
	Registry     *tools.Registry
	// ToolNames is the subset of registry tools this agent advertises.
	ToolNames []string
	Clock     simclock.Clock
	Recorder  *metrics.Recorder
	// MaxRounds bounds the reason-act loop (default 8).
	MaxRounds int
	// AbsorbLatency sleeps each response's Latency on Clock, whichever
	// clock it is. Enable for simulated backends, whose latency is never
	// spent in compute; disable for live HTTP backends, whose latency has
	// already elapsed in real time. Solver time is not governed by this
	// flag: it already elapsed too, so Run charges it to Clock only when
	// Clock is virtual (see advancer).
	AbsorbLatency bool
	// Salt feeds the simulated backends' seeded randomness (run index).
	Salt int64
}

// advancer is a virtual clock, one whose time passes only when it is
// told to (simclock.Sim). Compute that already elapsed on the wall clock
// is charged to such a clock and to no other.
type advancer interface {
	Advance(d time.Duration)
}

// errTooManyRounds guards against planning loops.
var errTooManyRounds = errors.New("agents: too many reasoning rounds")

// Run executes one conversational turn.
func (a *Agent) Run(ctx context.Context, query string) (*Turn, error) {
	maxRounds := a.MaxRounds
	if maxRounds == 0 {
		maxRounds = 8
	}
	clock := a.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	turn := &Turn{Agent: a.Name, Model: a.Client.Model(), Query: query}
	defs := a.toolDefs()
	msgs := []llm.Message{
		{Role: llm.RoleSystem, Content: a.SystemPrompt},
		{Role: llm.RoleUser, Content: query},
	}
	started := clock.Now()
	virtual, _ := clock.(advancer)

	var toolData []map[string]any // successful structured results this turn
	for round := 0; round < maxRounds; round++ {
		req := &llm.Request{Model: a.Client.Model(), Messages: msgs, Tools: defs, Salt: a.Salt}
		resp, err := a.Client.Complete(ctx, req)
		if err != nil {
			a.record(turn, started, clock)
			return turn, fmt.Errorf("agents: %s: llm backend: %w", a.Name, err)
		}
		if a.AbsorbLatency {
			clock.Sleep(resp.Latency)
		}
		turn.PromptTokens += resp.Usage.PromptTokens
		turn.CompletionTokens += resp.Usage.CompletionTokens

		if len(resp.Message.ToolCalls) == 0 {
			// Reflect: audit the narration against structured results
			// before anything reaches the user.
			reply, slips := auditNarration(resp.Message.Content, toolData)
			turn.FactualSlips += slips
			turn.Reply = reply
			turn.Steps = append(turn.Steps, Step{Kind: "narration", LLMLat: resp.Latency})
			break
		}

		msgs = append(msgs, resp.Message)
		for _, tc := range resp.Message.ToolCalls {
			step := Step{Kind: "tool_call", Tool: tc.Name, Args: tc.Args, LLMLat: resp.Latency}
			t0 := time.Now()
			result, raw, err := a.Registry.Invoke(tc.Name, tc.Args)
			step.ToolLat = time.Since(t0)
			if virtual != nil {
				// Solver time has already passed on the wall clock; a
				// virtual session clock has to be told.
				virtual.Advance(step.ToolLat)
			}
			turn.ToolCalls++
			var content string
			var decoded map[string]any
			if err != nil {
				step.Err = err.Error()
				if errors.Is(err, tools.ErrInputSchema) || errors.Is(err, tools.ErrOutputSchema) {
					turn.ValidationErrors++
				}
				errRaw, _ := json.Marshal(map[string]any{"error": err.Error()})
				content = string(errRaw)
			} else {
				step.Result = result
				if m, ok := result.(map[string]any); ok {
					decoded = m
					toolData = append(toolData, m)
					if rec, _ := m["recovery_used"].(bool); rec {
						turn.Recoveries++
					}
				}
				// raw is the encoding Invoke decoded result from: the
				// tool message without a second encode, and the model
				// reads result without a second decode.
				content = string(raw)
			}
			msgs = append(msgs, llm.Message{
				Role: llm.RoleTool, ToolCallID: tc.ID, Name: tc.Name, Content: content, Decoded: decoded,
			})
			turn.Steps = append(turn.Steps, step)
		}
		if round == maxRounds-1 {
			a.record(turn, started, clock)
			return turn, errTooManyRounds
		}
	}
	turn.Success = a.judgeSuccess(turn, toolData)
	a.record(turn, started, clock)
	return turn, nil
}

// judgeSuccess applies the validation gate: a turn succeeds when it
// produced a narration and its structured results pass the paper's
// checks (convergence flag, power balance below 1e-4 p.u.).
func (a *Agent) judgeSuccess(turn *Turn, toolData []map[string]any) bool {
	if turn.Reply == "" || strings.HasPrefix(turn.Reply, "I could not complete") {
		return false
	}
	if turn.ToolCalls == 0 {
		// Pure conversational turns (capability questions) count as
		// successful only if nothing failed.
		return turn.ValidationErrors == 0
	}
	if len(toolData) == 0 {
		return false
	}
	for _, d := range toolData {
		if solved, ok := d["solved"].(bool); ok && !solved {
			return false
		}
		if mis, ok := d["max_mismatch_pu"].(float64); ok && mis > 1e-4 {
			return false
		}
		if conv, ok := d["converged"].(bool); ok && !conv {
			return false
		}
	}
	return true
}

func (a *Agent) record(turn *Turn, started time.Time, clock simclock.Clock) {
	turn.Latency = clock.Now().Sub(started)
	if a.Recorder != nil {
		a.Recorder.Record(metrics.Interaction{
			Model:            turn.Model,
			Agent:            turn.Agent,
			Query:            turn.Query,
			Latency:          turn.Latency,
			PromptTokens:     turn.PromptTokens,
			CompletionTokens: turn.CompletionTokens,
			ToolCalls:        turn.ToolCalls,
			ValidationErrors: turn.ValidationErrors,
			FactualSlips:     turn.FactualSlips,
			Recoveries:       turn.Recoveries,
			Success:          turn.Success,
			At:               clock.Now(),
		})
	}
}

func (a *Agent) toolDefs() []llm.ToolDef {
	var defs []llm.ToolDef
	for _, name := range a.ToolNames {
		if t, ok := a.Registry.Get(name); ok {
			defs = append(defs, llm.ToolDef{Name: t.Name, Description: t.Description, Parameters: t.Input})
		}
	}
	return defs
}

var reNarratedMoney = regexp.MustCompile(`\$([0-9]+(?:\.[0-9]{1,2})?)/h`)

// auditNarration verifies every cost figure in the narrative against the
// turn's structured tool results and repairs misquotes (the paper's
// anti-hallucination layer: "every reported number is pulled from stored
// structured results"). It returns the corrected text and the number of
// factual slips repaired.
func auditNarration(text string, toolData []map[string]any) (string, int) {
	if len(toolData) == 0 {
		return text, 0
	}
	// Collect authoritative money values from structured results.
	var truth []float64
	for _, d := range toolData {
		for _, key := range []string{"objective_cost", "last_objective_cost"} {
			if v, ok := d[key].(float64); ok && v > 0 {
				truth = append(truth, v)
			}
		}
	}
	if len(truth) == 0 {
		return text, 0
	}
	slips := 0
	fixed := reNarratedMoney.ReplaceAllStringFunc(text, func(m string) string {
		numStr := reNarratedMoney.FindStringSubmatch(m)[1]
		v, err := strconv.ParseFloat(numStr, 64)
		if err != nil {
			return m
		}
		// Exact (to the cent) match against any stored value → verified.
		best, bestDiff := 0.0, 1e18
		for _, t := range truth {
			d := abs(v - t)
			if d < bestDiff {
				best, bestDiff = t, d
			}
		}
		if bestDiff <= 0.005 {
			return m // verified against structured data
		}
		if bestDiff/best < 0.05 {
			// Close but wrong: a factual slip. Repair from the stored
			// value instead of trusting the narration.
			slips++
			return fmt.Sprintf("$%.2f/h", best)
		}
		return m // not a recognizable artifact value; leave untouched
	})
	return fixed, slips
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
