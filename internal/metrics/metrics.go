// Package metrics implements the paper's instrumentation bench: per-query
// records of solver metrics plus LLM backend latency, token usage,
// validation failures and factual slips, with the aggregations the
// evaluation section reports (success rates, latency distributions).
package metrics

import (
	"encoding/json"
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
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observe binds the recorder to an obs registry: every Record also feeds
// the per-agent interaction/success counters and latency histogram.
// Returns the recorder for chaining. Recording is per-turn, not hot-path,
// so the registry's get-or-create lookup per record is acceptable.
func (r *Recorder) Observe(met *obs.Registry) *Recorder {
	r.mu.Lock()
	r.met = met
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
	met := r.met
	r.mu.Unlock()
	if met == nil {
		return
	}
	met.Counter("gridmind_agent_interactions_total", "Agent turns recorded.", "agent", i.Agent).Inc()
	if i.Success {
		met.Counter("gridmind_agent_success_total", "Agent turns that succeeded.", "agent", i.Agent).Inc()
	}
	met.Histogram("gridmind_agent_latency_seconds", "End-to-end agent turn latency.", nil, "agent", i.Agent).ObserveDuration(i.Latency)
	met.Counter("gridmind_agent_tokens_total", "LLM tokens by direction.", "agent", i.Agent, "direction", "prompt").Add(int64(i.PromptTokens))
	met.Counter("gridmind_agent_tokens_total", "", "agent", i.Agent, "direction", "completion").Add(int64(i.CompletionTokens))
	met.Counter("gridmind_agent_validation_errors_total", "Tool-call validation failures.", "agent", i.Agent).Add(int64(i.ValidationErrors))
	met.Counter("gridmind_agent_factual_slips_total", "Numeric claims contradicting tool output.", "agent", i.Agent).Add(int64(i.FactualSlips))
	met.Counter("gridmind_agent_recoveries_total", "Solver fallback recoveries during turns.", "agent", i.Agent).Add(int64(i.Recoveries))
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
	s.Q1Latency = quantile(lats, 0.25)
	s.MedianLat = quantile(lats, 0.5)
	s.Q3Latency = quantile(lats, 0.75)
	s.MeanLatency = sum / time.Duration(len(rows))
	return s
}

// quantile interpolates linearly between order statistics.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// Filter returns the rows matching the predicate.
func Filter(rows []Interaction, keep func(Interaction) bool) []Interaction {
	var out []Interaction
	for _, r := range rows {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// ByModel groups rows per model name, sorted keys for determinism.
func ByModel(rows []Interaction) (models []string, groups map[string][]Interaction) {
	groups = map[string][]Interaction{}
	for _, r := range rows {
		groups[r.Model] = append(groups[r.Model], r)
	}
	for m := range groups {
		models = append(models, m)
	}
	sort.Strings(models)
	return models, groups
}

// WriteJSON dumps all rows as a JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Rows())
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
