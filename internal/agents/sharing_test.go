package agents

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"gridmind/internal/llm"
	"gridmind/internal/tools"
)

// frozenClock never moves: tool time is not charged to it (it is not a
// virtual clock that advances), so every session stamp is the same
// instant whatever the solvers cost on the wall clock.
type frozenClock struct{ t time.Time }

func (c frozenClock) Now() time.Time      { return c.t }
func (c frozenClock) Sleep(time.Duration) {}

// recordingClient passes each completion to its client and logs the
// request it was given and the response it returned.
type recordingClient struct {
	llm.Client
	reqs  []*llm.Request
	resps []*llm.Response
}

func (c *recordingClient) Complete(ctx context.Context, req *llm.Request) (*llm.Response, error) {
	resp, err := c.Client.Complete(ctx, req)
	if err != nil {
		return nil, err
	}
	c.reqs = append(c.reqs, req)
	c.resps = append(c.resps, resp)
	return resp, nil
}

// scriptThenModel answers a turn's first completion with every call of
// its script at once and hands every later completion to model, which
// then reads all the script's results.
type scriptThenModel struct {
	llm.Client
	calls []llm.ToolCall
}

func (c *scriptThenModel) Complete(ctx context.Context, req *llm.Request) (*llm.Response, error) {
	if req.Messages[len(req.Messages)-1].Role == llm.RoleUser {
		return &llm.Response{Message: llm.Message{Role: llm.RoleAssistant, ToolCalls: c.calls}}, nil
	}
	return c.Client.Complete(ctx, req)
}

// sharingScript calls all 14 tools and one that fails.
var sharingScript = []llm.ToolCall{
	{ID: "c1", Name: tools.ToolSolveACOPF, Args: map[string]any{"case_name": "case30"}},
	{ID: "c2", Name: tools.ToolNetworkStatus, Args: map[string]any{"bus": 5}},
	{ID: "c3", Name: tools.ToolModifyBusLoad, Args: map[string]any{"bus": 5, "p_mw": 95.5}},
	{ID: "c4", Name: tools.ToolLoadSensitivity, Args: map[string]any{}},
	{ID: "c5", Name: tools.ToolAssessQuality, Args: map[string]any{}},
	{ID: "c6", Name: tools.ToolCompareStrategy, Args: map[string]any{"max_rounds": 1}},
	{ID: "c7", Name: tools.ToolSolveBaseCase, Args: map[string]any{"case_name": "case30"}},
	{ID: "c8", Name: tools.ToolRunN1, Args: map[string]any{"top_k": 3}},
	{ID: "c9", Name: tools.ToolAnalyzeOutage, Args: map[string]any{"branch": 3}},
	{ID: "c10", Name: tools.ToolContStatus, Args: map[string]any{}},
	{ID: "c11", Name: tools.ToolRunN2, Args: map[string]any{"top_k": 3, "seed_k": 4}},
	{ID: "c12", Name: tools.ToolGenOutage, Args: map[string]any{"bus": 2}},
	{ID: "c13", Name: tools.ToolCascade, Args: map[string]any{"branches": []any{3}}},
	{ID: "c14", Name: tools.ToolRunMC, Args: map[string]any{"samples": 20, "seed": 1}},
	{ID: "c15", Name: tools.ToolSolveACOPF, Args: map[string]any{"case_name": "case9999"}},
}

// sharingAsks is a conversation over both agents' toolboxes.
var sharingAsks = []string{
	"Solve IEEE 30",
	"Increase the load at bus 9 by 2.5 MW",
	"What is the current network status?",
	"Assess the quality of the solution",
	"Show the load sensitivity price map",
	"Run N-1 contingency analysis on IEEE 30 and show the top 5",
	"Analyze the outage of branch 7",
	"Analyze the reliability impact of losing the generator at bus 2",
	"Run a cascade study starting with branch 7 on IEEE 30",
	"Solve IEEE 57, then run contingency analysis",
	"Solve IEEE 999",
	"What can you help me with?",
}

// slippyProfile misquotes half its narrations, so the audit has slips to
// repair.
func slippyProfile(t *testing.T) llm.Profile {
	t.Helper()
	p, ok := llm.ProfileByName(llm.ModelGPTO3)
	if !ok {
		t.Fatal("no GPT-o3 profile")
	}
	p.SlipRate = 0.5
	return p
}

func unmarshalContent(t *testing.T, m llm.Message) any {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(m.Content), &v); err != nil {
		t.Fatalf("%s: tool message does not decode: %v", m.Name, err)
	}
	return v
}

// checkShared: after everything ran, every tool message's Decoded and
// every tool step's Result still deep-equal a fresh decode of the
// message's bytes, so no reader modified the one decoded map they all
// share. A failed call's message carries no Decoded.
func checkShared(t *testing.T, rec *recordingClient, turns []*Turn) {
	t.Helper()
	var msgs []llm.Message // each turn's tool messages, from its last request
	for i, req := range rec.reqs {
		if i+1 < len(rec.reqs) && len(rec.reqs[i+1].Messages) > 2 {
			continue // not the turn's last request
		}
		for _, m := range req.Messages {
			if m.Role == llm.RoleTool {
				msgs = append(msgs, m)
			}
		}
	}
	var steps []Step
	for _, turn := range turns {
		for _, s := range turn.Steps {
			if s.Kind == "tool_call" {
				steps = append(steps, s)
			}
		}
	}
	if len(msgs) != len(steps) || len(steps) == 0 {
		t.Fatalf("%d tool messages for %d tool steps", len(msgs), len(steps))
	}
	for i, m := range msgs {
		fresh := unmarshalContent(t, m)
		if steps[i].Err != "" {
			if m.Decoded != nil {
				t.Errorf("%s: failed call's message carries Decoded", m.Name)
			}
			continue
		}
		if m.Decoded == nil {
			t.Errorf("%s: tool message without Decoded", m.Name)
		} else if !reflect.DeepEqual(any(m.Decoded), fresh) {
			t.Errorf("%s: Decoded no longer equals the message bytes", m.Name)
		}
		if !reflect.DeepEqual(steps[i].Result, fresh) {
			t.Errorf("%s: Step.Result no longer equals the message bytes", m.Name)
		}
	}
}

// TestDecodedResultsStayUnmodified runs the 14-tool script, narrated by
// the simulated model from every result, and a conversation of
// model-planned asks, then checks nothing modified a shared result.
func TestDecodedResultsStayUnmodified(t *testing.T) {
	start := time.Date(2025, 9, 2, 0, 0, 0, 0, time.UTC)
	sim := llm.NewSim(slippyProfile(t))

	rec := &recordingClient{Client: &scriptThenModel{Client: sim, calls: sharingScript}}
	c := NewCoordinator(Config{Client: rec, Clock: frozenClock{start}, AbsorbLatency: true})
	turn, err := c.ACOPF.Run(context.Background(), "Solve IEEE 30")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(turn.Steps); n != len(sharingScript)+1 || turn.Steps[n-2].Err == "" {
		t.Fatalf("scripted turn: %d steps, last call error %q", n, turn.Steps[n-2].Err)
	}
	checkShared(t, rec, []*Turn{turn})

	rec = &recordingClient{Client: sim}
	c = NewCoordinator(Config{Client: rec, Clock: frozenClock{start}, AbsorbLatency: true})
	var turns []*Turn
	for _, q := range sharingAsks {
		ex, err := c.Handle(context.Background(), q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		turns = append(turns, ex.Turns...)
	}
	checkShared(t, rec, turns)
}

// TestInProcessMatchesHandler runs one conversation against the simulated
// model in process, where it reads each tool result already decoded, and
// through llm.Handler over HTTP, where it decodes the message bytes. The
// replies, the requests (every tool message), the model's messages, its
// simulated latencies and the repaired slips are byte-identical.
func TestInProcessMatchesHandler(t *testing.T) {
	start := time.Date(2025, 9, 2, 0, 0, 0, 0, time.UTC)
	p := slippyProfile(t)
	srv := httptest.NewServer(llm.Handler(llm.NewSim(p)))
	defer srv.Close()

	run := func(client llm.Client) (log []string, slips int) {
		rec := &recordingClient{Client: client}
		c := NewCoordinator(Config{Client: rec, Clock: frozenClock{start}, AbsorbLatency: true, Salt: 3})
		for _, q := range sharingAsks {
			ex, err := c.Handle(context.Background(), q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			log = append(log, "reply: "+ex.Reply)
			for _, turn := range ex.Turns {
				slips += turn.FactualSlips
				log = append(log, fmt.Sprintf("slips: %d", turn.FactualSlips))
			}
		}
		for i, req := range rec.reqs {
			msgs, err := json.Marshal(req.Messages)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := json.Marshal(rec.resps[i])
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, "request: "+string(msgs), "response: "+string(resp))
		}
		return log, slips
	}
	local, slips := run(llm.NewSim(p))
	remote, _ := run(&llm.HTTPClient{Endpoint: srv.URL, ModelName: p.Name})
	if slips == 0 {
		t.Error("no narration slipped: the slip draws went untested")
	}
	if len(local) != len(remote) {
		t.Fatalf("%d log lines in process, %d over HTTP", len(local), len(remote))
	}
	for i := range local {
		if local[i] != remote[i] {
			t.Errorf("in process and over HTTP differ:\n%s\n%s", trim(local[i]), trim(remote[i]))
		}
	}
}

func trim(s string) string {
	if len(s) > 400 {
		return s[:400] + "..."
	}
	return strings.TrimSpace(s)
}
