package agents

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"gridmind/internal/llm"
	"gridmind/internal/opf"
	"gridmind/internal/session"
	"gridmind/internal/simclock"
	"gridmind/internal/tools"
)

// scriptedClient answers the first completion of a turn with every call
// of its script at once and the second with a narration. It keeps the
// last request it saw, whose messages hold the turn's tool messages.
type scriptedClient struct {
	calls []llm.ToolCall
	last  *llm.Request
}

func (c *scriptedClient) Model() string { return "scripted" }

func (c *scriptedClient) Complete(_ context.Context, req *llm.Request) (*llm.Response, error) {
	c.last = req
	if req.Messages[len(req.Messages)-1].Role == llm.RoleUser {
		return &llm.Response{Message: llm.Message{Role: llm.RoleAssistant, ToolCalls: c.calls}}, nil
	}
	return &llm.Response{Message: llm.Message{Role: llm.RoleAssistant, Content: "done"}}, nil
}

// nonNative appends to bad the paths of v's nodes that schema.Normalize
// does not walk natively but hands to its Marshal+Unmarshal fallback:
// anything but nil, bool, float64, int, a valid UTF-8 string, and
// map[string]any, []any, []map[string]any or []string of such nodes.
func nonNative(path string, v any, bad []string) []string {
	switch x := v.(type) {
	case nil, bool, float64, int:
	case string:
		if !utf8.ValidString(x) {
			bad = append(bad, path+" (invalid UTF-8)")
		}
	case map[string]any:
		for k, e := range x {
			if !utf8.ValidString(k) {
				bad = append(bad, path+" (invalid UTF-8 key)")
			}
			bad = nonNative(path+"."+k, e, bad)
		}
	case []any:
		for i, e := range x {
			bad = nonNative(fmt.Sprintf("%s[%d]", path, i), e, bad)
		}
	case []map[string]any:
		for i, e := range x {
			bad = nonNative(fmt.Sprintf("%s[%d]", path, i), e, bad)
		}
	case []string:
		for i, e := range x {
			bad = nonNative(fmt.Sprintf("%s[%d]", path, i), e, bad)
		}
	default:
		bad = append(bad, fmt.Sprintf("%s (%T)", path, v))
	}
	return bad
}

// TestToolMessageIsMarshalOfResult: the tool message Run hands back to the
// model is byte for byte json.Marshal of the validated result, for every
// registered tool and for a failing call, and the decoded value it carries
// is json.Unmarshal of those bytes (nil for the failing call). Every
// tool's result is built only from values schema.Normalize walks natively,
// so no reply takes its Marshal+Unmarshal fallback.
func TestToolMessageIsMarshalOfResult(t *testing.T) {
	script := []struct {
		tool string
		args map[string]any
	}{
		{tools.ToolSolveACOPF, map[string]any{"case_name": "case30"}},
		{tools.ToolNetworkStatus, map[string]any{"bus": 5}},
		{tools.ToolModifyBusLoad, map[string]any{"bus": 5, "p_mw": 95.5}},
		{tools.ToolLoadSensitivity, map[string]any{}},
		{tools.ToolAssessQuality, map[string]any{}},
		{tools.ToolCompareStrategy, map[string]any{"max_rounds": 1}},
		{tools.ToolSolveBaseCase, map[string]any{"case_name": "case30"}},
		{tools.ToolRunN1, map[string]any{"top_k": 3}},
		{tools.ToolAnalyzeOutage, map[string]any{"branch": 3}},
		{tools.ToolContStatus, map[string]any{}},
		{tools.ToolRunN2, map[string]any{"top_k": 3, "seed_k": 4}},
		{tools.ToolGenOutage, map[string]any{"bus": 2}},
		{tools.ToolCascade, map[string]any{"branches": []any{3}}},
		{tools.ToolRunMC, map[string]any{"samples": 20, "seed": 1}},
		{tools.ToolSolveACOPF, map[string]any{"case_name": "case9999"}},
	}
	client := &scriptedClient{}
	for _, s := range script {
		client.calls = append(client.calls, llm.ToolCall{ID: "call-" + s.tool, Name: s.tool, Args: s.args})
	}
	c := NewCoordinator(Config{Client: client, Clock: simclock.NewSim(time.Date(2025, 9, 2, 0, 0, 0, 0, time.UTC))})
	var fallbacks []string
	walked := map[string]bool{}
	for _, s := range script {
		tool, ok := c.ACOPF.Registry.Get(s.tool)
		if !ok || walked[s.tool] {
			continue
		}
		walked[s.tool] = true
		fn := tool.Fn
		tool.Fn = func(args map[string]any) (any, error) {
			out, err := fn(args)
			fallbacks = nonNative(s.tool, out, fallbacks)
			return out, err
		}
	}
	turn, err := c.ACOPF.Run(context.Background(), "run the script")
	if err != nil {
		t.Fatal(err)
	}
	var msgs []llm.Message
	for _, m := range client.last.Messages {
		if m.Role == llm.RoleTool {
			msgs = append(msgs, m)
		}
	}
	var steps []Step
	for _, s := range turn.Steps {
		if s.Kind == "tool_call" {
			steps = append(steps, s)
		}
	}
	if len(msgs) != len(script) || len(steps) != len(script) {
		t.Fatalf("%d tool messages and %d tool steps for %d scripted calls", len(msgs), len(steps), len(script))
	}
	seen := map[string]bool{}
	for i, step := range steps {
		want, err := json.Marshal(step.Result)
		if step.Err != "" {
			want, err = json.Marshal(map[string]any{"error": step.Err})
		} else {
			seen[step.Tool] = true
		}
		if err != nil {
			t.Fatal(err)
		}
		if msgs[i].Content != string(want) {
			t.Errorf("%s: tool message\n%s\nwant json.Marshal of the validated result\n%s", step.Tool, msgs[i].Content, want)
		}
		// A failed call's message carries no Decoded value (the model
		// decodes its content), so its value is compared as nil.
		var decoded map[string]any
		if step.Err == "" {
			if err := json.Unmarshal([]byte(msgs[i].Content), &decoded); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(msgs[i].Decoded, decoded) {
			t.Errorf("%s: the message's Decoded value\n%#v\nis not json.Unmarshal of its content\n%#v", step.Tool, msgs[i].Decoded, decoded)
		}
	}
	if steps[len(steps)-1].Err == "" {
		t.Error("the unknown case did not fail")
	}
	for _, path := range fallbacks {
		t.Errorf("result node %s is outside schema.Normalize's native set", path)
	}
	for _, s := range script[:len(script)-1] {
		if !seen[s.tool] {
			t.Errorf("%s returned no result", s.tool)
		}
	}
}

// TestScriptedSessionsSendIdenticalToolMessages: two sessions on simulated
// clocks that start at the same instant, given the same script, send the
// model byte-identical tool messages, with no field masked. The solvers
// read no clock; get_network_status stamps last_solve_at from the session
// clock, so it reads the simulated instant, never the wall clock.
func TestScriptedSessionsSendIdenticalToolMessages(t *testing.T) {
	start := time.Date(2025, 9, 2, 0, 0, 0, 0, time.UTC)
	script := []llm.ToolCall{
		{ID: "c1", Name: tools.ToolSolveACOPF, Args: map[string]any{"case_name": "case14"}},
		{ID: "c2", Name: tools.ToolNetworkStatus, Args: map[string]any{}},
		{ID: "c3", Name: tools.ToolModifyBusLoad, Args: map[string]any{"bus": 9, "p_mw": 31.5}},
		{ID: "c4", Name: tools.ToolNetworkStatus, Args: map[string]any{"bus": 9}},
	}
	run := func() []string {
		client := &scriptedClient{calls: script}
		c := NewCoordinator(Config{Client: client, Clock: simclock.NewSim(start)})
		if _, err := c.ACOPF.Run(context.Background(), "run the script"); err != nil {
			t.Fatal(err)
		}
		var msgs []string
		for _, m := range client.last.Messages {
			if m.Role == llm.RoleTool {
				msgs = append(msgs, m.Content)
			}
		}
		return msgs
	}
	first, second := run(), run()
	if len(first) != len(script) || len(second) != len(script) {
		t.Fatalf("%d and %d tool messages for %d scripted calls", len(first), len(second), len(script))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("%s: tool messages differ:\n%s\n%s", script[i].Name, first[i], second[i])
		}
	}
	for _, i := range []int{1, 3} {
		var status map[string]any
		if err := json.Unmarshal([]byte(first[i]), &status); err != nil {
			t.Fatal(err)
		}
		// Tool time advances the simulated clock by milliseconds, so the
		// stamp stays in the session's first simulated second.
		if got := status["last_solve_at"]; got != "2025-09-02T00:00:00Z" {
			t.Errorf("call %d: last_solve_at %v, want the session clock's 2025-09-02T00:00:00Z", i+1, got)
		}
	}
}

// TestSpilledSessionSendsIdenticalWhatIf: a session spilled and restored
// between "Solve IEEE 118" and a what-if sends the model the same
// what-if tool messages, byte for byte, as one that never spilled. The
// stored solution's multipliers survive the spill exactly, so the
// restored session's re-solve is warm-started from the same point: it
// converges in at most 10 iterates with no fallback (cold takes 12–18).
func TestSpilledSessionSendsIdenticalWhatIf(t *testing.T) {
	start := time.Date(2025, 9, 2, 0, 0, 0, 0, time.UTC)
	solve := []llm.ToolCall{{ID: "c1", Name: tools.ToolSolveACOPF, Args: map[string]any{"case_name": "case118"}}}
	whatIf := []llm.ToolCall{
		{ID: "c2", Name: tools.ToolNetworkStatus, Args: map[string]any{"bus": 11}},
		{ID: "c3", Name: tools.ToolModifyBusLoad, Args: map[string]any{"bus": 11, "p_mw": 74.5}},
		{ID: "c4", Name: tools.ToolNetworkStatus, Args: map[string]any{}},
	}
	run := func(spill bool) []string {
		clock := simclock.NewSim(start)
		client := &scriptedClient{calls: solve}
		sess := session.NewWithEngine(clock.Now, nil)
		c := NewCoordinator(Config{Client: client, Clock: clock, Session: sess})
		if _, err := c.ACOPF.Run(context.Background(), "solve"); err != nil {
			t.Fatal(err)
		}
		if spill {
			var buf bytes.Buffer
			if err := sess.Persist(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := session.RestoreWithEngine(&buf, clock.Now, nil)
			if err != nil {
				t.Fatal(err)
			}
			c = NewCoordinator(Config{Client: client, Clock: clock, Session: restored})
		}
		client.calls = whatIf
		if _, err := c.ACOPF.Run(context.Background(), "what if"); err != nil {
			t.Fatal(err)
		}
		msgs := client.last.Messages
		var out []string
		for _, m := range msgs[lastUser(msgs):] {
			if m.Role == llm.RoleTool {
				out = append(out, m.Content)
			}
		}
		return out
	}
	kept, spilled := run(false), run(true)
	if len(kept) != len(whatIf) || len(spilled) != len(whatIf) {
		t.Fatalf("%d and %d tool messages for %d scripted calls", len(kept), len(spilled), len(whatIf))
	}
	for i := range kept {
		if kept[i] != spilled[i] {
			t.Errorf("%s: tool messages differ:\n%s\n%s", whatIf[i].Name, kept[i], spilled[i])
		}
	}
	var reply map[string]any
	if err := json.Unmarshal([]byte(spilled[1]), &reply); err != nil {
		t.Fatal(err)
	}
	msg, _ := reply["convergence_message"].(string)
	if it, _ := reply["iterations"].(float64); reply["solved"] != true || it > 10 || strings.HasPrefix(msg, opf.WarmStartFallback) {
		t.Errorf("the restored session's what-if was not warm-started: %v", reply)
	}
}

// lastUser is the index of the last user message in msgs.
func lastUser(msgs []llm.Message) int {
	for i := len(msgs) - 1; i >= 0; i-- {
		if msgs[i].Role == llm.RoleUser {
			return i
		}
	}
	return 0
}
