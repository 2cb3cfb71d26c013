// Package llm provides the language-model abstraction behind GridMind's
// agents: a provider-neutral chat/function-calling interface, six
// deterministic simulated backends whose behaviour profiles (latency
// distribution, token counts, analysis strategy, verbosity, factual-slip
// rate) are calibrated to the models evaluated in the paper, and an
// OpenAI-compatible HTTP client + server pair so the same agent code runs
// against live endpoints.
//
// The paper accesses GPT-5, GPT-5-mini, GPT-5-nano, GPT-o3, GPT-o4-mini
// and Claude 4 Sonnet through remote APIs. This module is offline, so
// those backends are simulated (see DESIGN.md §1): the simulator parses
// intent from the conversation, emits real tool calls through the same
// registry schemas, and reproduces the paper's model-to-model differences
// — which is exactly what the evaluation measures.
package llm

import (
	"context"
	"time"
)

// Role labels a chat message.
type Role string

// Chat roles.
const (
	RoleSystem    Role = "system"
	RoleUser      Role = "user"
	RoleAssistant Role = "assistant"
	RoleTool      Role = "tool"
)

// ToolCall is a function invocation requested by the model.
type ToolCall struct {
	ID   string         `json:"id"`
	Name string         `json:"name"`
	Args map[string]any `json:"args"`
}

// Message is one chat turn. Tool results carry the originating call's ID
// and tool name, with the result serialized as JSON in Content.
type Message struct {
	Role       Role       `json:"role"`
	Content    string     `json:"content,omitempty"`
	ToolCalls  []ToolCall `json:"tool_calls,omitempty"`
	ToolCallID string     `json:"tool_call_id,omitempty"`
	Name       string     `json:"name,omitempty"`
	// Decoded is a tool result's Content already decoded, set by the
	// sender that decoded it from those very bytes; nil otherwise (and
	// always after a trip over the wire). Readers share it and must not
	// modify it.
	Decoded map[string]any `json:"-"`
}

// ToolDef advertises a callable tool to the model.
type ToolDef struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Parameters is the JSON-schema object for the arguments.
	Parameters any `json:"parameters"`
}

// Request is one completion request.
type Request struct {
	Model    string    `json:"model"`
	Messages []Message `json:"messages"`
	Tools    []ToolDef `json:"tools,omitempty"`
	// Salt perturbs the simulated backends' seeded randomness so repeated
	// experiment runs see independent latency draws; live backends ignore
	// it.
	Salt int64 `json:"salt,omitempty"`
}

// Usage is token accounting for one completion.
type Usage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
}

// Response is one completion: either tool calls to execute or final text.
type Response struct {
	Message Message `json:"message"`
	Usage   Usage   `json:"usage"`
	// Latency is the backend's (possibly simulated) processing time; the
	// caller decides which clock absorbs it.
	Latency time.Duration `json:"latency_ns"`
}

// Client is a chat-completion backend.
type Client interface {
	// Complete produces the next assistant message.
	Complete(ctx context.Context, req *Request) (*Response, error)
	// Model returns the backend's model name.
	Model() string
}

// EstimateTokens approximates token counts the way the paper's
// instrumentation logs them: ~4 characters per token.
func EstimateTokens(text string) int {
	n := (len(text) + 3) / 4
	if n == 0 && len(text) > 0 {
		n = 1
	}
	return n
}

// PromptTokens estimates the token footprint of a full request.
func PromptTokens(req *Request) int {
	t := 0
	for _, m := range req.Messages {
		t += EstimateTokens(m.Content) + 4 // per-message overhead
		for _, tc := range m.ToolCalls {
			t += EstimateTokens(tc.Name) + 8
		}
	}
	for _, td := range req.Tools {
		t += EstimateTokens(td.Name+td.Description) + 24 // schema overhead
	}
	return t
}
