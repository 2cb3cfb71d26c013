// Package metrics implements the paper's instrumentation bench: per-query
// records of solver metrics plus LLM backend latency, token usage,
// validation failures and factual slips, with the aggregations the
// evaluation section reports (success rates, latency distributions).
package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"gridmind/internal/obs"
)

// Interaction is one agent turn's record.
type Interaction struct {
	Model            string        `json:"model"`
	Agent            string        `json:"agent"`
	Query            string        `json:"query"`
	Latency          time.Duration `json:"latency_ns"`
	PromptTokens     int           `json:"prompt_tokens"`
	CompletionTokens int           `json:"completion_tokens"`
	ToolCalls        int           `json:"tool_calls"`
	ValidationErrors int           `json:"validation_errors"`
	FactualSlips     int           `json:"factual_slips"`
	Recoveries       int           `json:"recoveries"`
	Success          bool          `json:"success"`
	At               time.Time     `json:"at"`
}

// maxRows is how many of the most recent interactions a Recorder keeps. A
// serving process records one row per agent turn for its whole life, so
// the log is a ring: older rows are overwritten and counted in Dropped.
const maxRows = 4096

// Recorder keeps the last maxRows interactions in a ring; it is safe for
// concurrent use.
type Recorder struct {
	mu sync.Mutex
	// rows holds at most maxRows interactions; once full, next is the
	// slot of the oldest row, which the next Record overwrites.
	rows    []Interaction
	next    int
	dropped int64
	met     *obs.Registry
	// agents holds each agent's instrument handles on met, resolved on
	// the agent's first Record.
	agents map[string]*agentMetrics
}

// agentMetrics are one agent's handles on the bound registry.
type agentMetrics struct {
	interactions, tokensPrompt, tokensCompletion *obs.Counter
	validationErrors, factualSlips, recoveries   *obs.Counter
	latency                                      *obs.Histogram
	// success is resolved on the agent's first successful turn, so the
	// series appears only once there is a success to count.
	success *obs.Counter
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observe binds the recorder to an obs registry: every Record also feeds
// the per-agent interaction/success counters and latency histogram.
// Returns the recorder for chaining. Each agent's handles are registered
// on its first Record and kept: looking the eight instruments up on
// every Record measured about 3 % of all CPU of an in-process chat_light
// replay (20 000 asks, HTTP client included).
func (r *Recorder) Observe(met *obs.Registry) *Recorder {
	r.mu.Lock()
	r.met = met
	r.agents = nil
	r.mu.Unlock()
	return r
}

// Record appends one interaction, overwriting the oldest once maxRows are
// held.
func (r *Recorder) Record(i Interaction) {
	r.mu.Lock()
	if len(r.rows) < maxRows {
		if len(r.rows) == cap(r.rows) {
			// Grow by doubling, but never past the ring's size.
			grown := make([]Interaction, len(r.rows), min(max(2*cap(r.rows), 16), maxRows))
			copy(grown, r.rows)
			r.rows = grown
		}
		r.rows = append(r.rows, i)
	} else {
		r.rows[r.next] = i
		r.next = (r.next + 1) % maxRows
		r.dropped++
	}
	var m *agentMetrics
	if r.met != nil {
		m = r.handles(i.Agent, i.Success)
	}
	r.mu.Unlock()
	if m == nil {
		return
	}
	m.interactions.Inc()
	if i.Success {
		m.success.Inc()
	}
	m.latency.ObserveDuration(i.Latency)
	m.tokensPrompt.Add(int64(i.PromptTokens))
	m.tokensCompletion.Add(int64(i.CompletionTokens))
	m.validationErrors.Add(int64(i.ValidationErrors))
	m.factualSlips.Add(int64(i.FactualSlips))
	m.recoveries.Add(int64(i.Recoveries))
}

// handles returns agent's instrument handles, registering them on its
// first turn and the success counter on its first successful one. The
// caller holds r.mu and has bound a registry.
func (r *Recorder) handles(agent string, success bool) *agentMetrics {
	m := r.agents[agent]
	if m == nil {
		met := r.met
		m = &agentMetrics{
			interactions:     met.Counter("gridmind_agent_interactions_total", "Agent turns recorded.", "agent", agent),
			latency:          met.Histogram("gridmind_agent_latency_seconds", "End-to-end agent turn latency.", nil, "agent", agent),
			tokensPrompt:     met.Counter("gridmind_agent_tokens_total", "LLM tokens by direction.", "agent", agent, "direction", "prompt"),
			tokensCompletion: met.Counter("gridmind_agent_tokens_total", "", "agent", agent, "direction", "completion"),
			validationErrors: met.Counter("gridmind_agent_validation_errors_total", "Tool-call validation failures.", "agent", agent),
			factualSlips:     met.Counter("gridmind_agent_factual_slips_total", "Numeric claims contradicting tool output.", "agent", agent),
			recoveries:       met.Counter("gridmind_agent_recoveries_total", "Solver fallback recoveries during turns.", "agent", agent),
		}
		if r.agents == nil {
			r.agents = map[string]*agentMetrics{}
		}
		r.agents[agent] = m
	}
	if success && m.success == nil {
		m.success = r.met.Counter("gridmind_agent_success_total", "Agent turns that succeeded.", "agent", agent)
	}
	return m
}

// Rows returns a snapshot copy of the kept interactions, oldest first.
func (r *Recorder) Rows() []Interaction {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Interaction, 0, len(r.rows))
	out = append(out, r.rows[r.next:]...)
	return append(out, r.rows[:r.next]...)
}

// Len returns the number of kept interactions (at most maxRows).
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rows)
}

// Dropped returns how many interactions the ring has overwritten.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset drops all records and the dropped count.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.rows, r.next, r.dropped = nil, 0, 0
	r.mu.Unlock()
}

// Summary aggregates a set of interactions.
type Summary struct {
	Count        int           `json:"count"`
	SuccessRate  float64       `json:"success_rate"` // 0..1
	MinLatency   time.Duration `json:"min_latency"`
	Q1Latency    time.Duration `json:"q1_latency"`
	MedianLat    time.Duration `json:"median_latency"`
	Q3Latency    time.Duration `json:"q3_latency"`
	MaxLatency   time.Duration `json:"max_latency"`
	MeanLatency  time.Duration `json:"mean_latency"`
	TotalTokens  int           `json:"total_tokens"`
	ToolCalls    int           `json:"tool_calls"`
	FactualSlips int           `json:"factual_slips"`
	Recoveries   int           `json:"recoveries"`
}

// Summarize aggregates the given rows (use Filter to slice by model).
func Summarize(rows []Interaction) Summary {
	s := Summary{Count: len(rows)}
	if len(rows) == 0 {
		return s
	}
	lats := make([]time.Duration, 0, len(rows))
	var sum time.Duration
	succ := 0
	for _, row := range rows {
		lats = append(lats, row.Latency)
		sum += row.Latency
		if row.Success {
			succ++
		}
		s.TotalTokens += row.PromptTokens + row.CompletionTokens
		s.ToolCalls += row.ToolCalls
		s.FactualSlips += row.FactualSlips
		s.Recoveries += row.Recoveries
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	s.SuccessRate = float64(succ) / float64(len(rows))
	s.MinLatency = lats[0]
	s.MaxLatency = lats[len(lats)-1]
	s.Q1Latency = Quantile(lats, 0.25)
	s.MedianLat = Quantile(lats, 0.5)
	s.Q3Latency = Quantile(lats, 0.75)
	s.MeanLatency = sum / time.Duration(len(rows))
	return s
}

// Quantile returns the q-quantile of an ascending slice, interpolating
// linearly between order statistics; an empty slice gives 0.
func Quantile[T time.Duration | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + T(frac*float64(sorted[lo+1]-sorted[lo]))
}

// WriteCSV dumps rows as CSV with a header.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "model,agent,latency_s,prompt_tokens,completion_tokens,tool_calls,validation_errors,factual_slips,recoveries,success"); err != nil {
		return err
	}
	for _, row := range r.Rows() {
		if _, err := fmt.Fprintf(w, "%s,%s,%.3f,%d,%d,%d,%d,%d,%d,%t\n",
			row.Model, row.Agent, row.Latency.Seconds(),
			row.PromptTokens, row.CompletionTokens, row.ToolCalls,
			row.ValidationErrors, row.FactualSlips, row.Recoveries, row.Success); err != nil {
			return err
		}
	}
	return nil
}
