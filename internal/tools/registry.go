// Package tools implements GridMind's typed function-tool layer: a
// registry of schema-validated tools (the paper's "vetted toolbox of
// deterministic power system solvers") plus the seven tools of Appendix
// B.3 that the ACOPF and contingency-analysis agents call.
//
// Every invocation validates arguments against the tool's input schema
// and the returned object against its output schema before the agent may
// narrate it — the produce-validate-consume loop of §3.3. New tools
// register with a schema and become visible to planners without touching
// core logic.
package tools

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gridmind/internal/obs"
	"gridmind/internal/schema"
)

// Tool is one registered capability.
type Tool struct {
	Name        string
	Description string
	// Input and Output schemas are mandatory: unvalidated tools cannot be
	// registered.
	Input  *schema.Schema
	Output *schema.Schema
	// Fn executes the tool on already-validated arguments and returns a
	// JSON-serializable result.
	Fn func(args map[string]any) (any, error)
}

// Validation failures are distinguishable from execution failures so the
// agents can choose the right recovery path.
var (
	ErrUnknownTool  = errors.New("tools: unknown tool")
	ErrInputSchema  = errors.New("tools: input validation failed")
	ErrOutputSchema = errors.New("tools: output validation failed")
)

// Registry holds tools. It is safe for concurrent use. Invocation,
// error and latency counts are published on the obs registry bound by
// Observe.
type Registry struct {
	mu    sync.Mutex
	tools map[string]*Tool

	// obs instruments, pre-registered per tool so Invoke's hot path only
	// loads handles (nil maps when no registry is bound).
	met *obs.Registry
	tm  map[string]*toolMetrics
}

// toolMetrics are one tool's pre-registered obs handles.
type toolMetrics struct {
	invocations *obs.Counter
	errors      *obs.Counter
	latency     *obs.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tools: map[string]*Tool{}}
}

// Observe binds the registry to an obs registry: every already-registered
// and future tool gets an invocation counter, error counter, and latency
// histogram labelled by tool name, observed at the Invoke boundary (which
// brackets solveWithRecovery for the solver tools).
func (r *Registry) Observe(met *obs.Registry) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.met = met
	r.tm = make(map[string]*toolMetrics, len(r.tools))
	for name := range r.tools {
		r.tm[name] = newToolMetrics(met, name)
	}
	return r
}

func newToolMetrics(met *obs.Registry, name string) *toolMetrics {
	return &toolMetrics{
		invocations: met.Counter("gridmind_tool_invocations_total", "Tool invocations by tool name.", "tool", name),
		errors:      met.Counter("gridmind_tool_errors_total", "Tool invocations that returned an error (validation or execution).", "tool", name),
		latency:     met.Histogram("gridmind_tool_latency_seconds", "Tool execution latency (validate + run + validate).", nil, "tool", name),
	}
}

// Register adds a tool. Tools without complete schemas are rejected.
func (r *Registry) Register(t *Tool) error {
	if t.Name == "" || t.Fn == nil {
		return errors.New("tools: tool needs a name and a function")
	}
	if t.Input == nil || t.Output == nil {
		return fmt.Errorf("tools: %s: input and output schemas are mandatory", t.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tools[t.Name]; dup {
		return fmt.Errorf("tools: %s already registered", t.Name)
	}
	r.tools[t.Name] = t
	if r.met != nil {
		r.tm[t.Name] = newToolMetrics(r.met, t.Name)
	}
	return nil
}

// Get returns the named tool.
func (r *Registry) Get(name string) (*Tool, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tools[name]
	return t, ok
}

// Invoke validates args, executes the tool, and validates + normalizes
// the result. The returned value is generic JSON data (map/slice/scalar)
// ready for storage in structured context; raw is the JSON encoding that
// value was decoded from, the tool message an agent hands back to its
// model.
func (r *Registry) Invoke(name string, args map[string]any) (any, []byte, error) {
	r.mu.Lock()
	t, ok := r.tools[name]
	tm := r.tm[name]
	r.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownTool, name)
	}
	if tm != nil {
		start := time.Now()
		defer func() { tm.latency.ObserveDuration(time.Since(start)) }()
		tm.invocations.Inc()
	}
	if args == nil {
		args = map[string]any{}
	}
	fail := func(err error) (any, []byte, error) {
		if tm != nil {
			tm.errors.Inc()
		}
		return nil, nil, err
	}
	norm, _, err := schema.Normalize(args)
	if err != nil {
		return fail(fmt.Errorf("%w: %s: %v", ErrInputSchema, name, err))
	}
	normMap, _ := norm.(map[string]any)
	if err := t.Input.Validate(normMap); err != nil {
		return fail(fmt.Errorf("%w: %s: %v", ErrInputSchema, name, err))
	}
	out, err := t.Fn(normMap)
	if err != nil {
		return fail(fmt.Errorf("tools: %s: %w", name, err))
	}
	validated, raw, err := t.Output.ValidateValue(out)
	if err != nil {
		return fail(fmt.Errorf("%w: %s: %v", ErrOutputSchema, name, err))
	}
	return validated, raw, nil
}
