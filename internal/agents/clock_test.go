package agents

import (
	"context"
	"sync"
	"testing"
	"time"

	"gridmind/internal/llm"
	"gridmind/internal/simclock"
)

// sleepRecorder is a wall clock that records every Sleep instead of
// blocking. It has no Advance, so the agent must treat it as real time.
type sleepRecorder struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (c *sleepRecorder) Now() time.Time { return time.Now() }

func (c *sleepRecorder) Sleep(d time.Duration) {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
}

// latencyRecorder forwards to a backend and records the Latency of each
// response it returns, one entry per completion.
type latencyRecorder struct {
	inner llm.Client
	lats  []time.Duration
}

func (r *latencyRecorder) Model() string { return r.inner.Model() }

func (r *latencyRecorder) Complete(ctx context.Context, req *llm.Request) (*llm.Response, error) {
	resp, err := r.inner.Complete(ctx, req)
	if err == nil {
		r.lats = append(r.lats, resp.Latency)
	}
	return resp, err
}

func newLatencyRecorder(t *testing.T) *latencyRecorder {
	t.Helper()
	profile, ok := llm.ProfileByName(llm.ModelGPTO3)
	if !ok {
		t.Fatal("profile missing")
	}
	return &latencyRecorder{inner: llm.NewSim(profile)}
}

// runSolveTurn runs one ACOPF agent turn that calls at least one tool.
func runSolveTurn(t *testing.T, c *Coordinator) *Turn {
	t.Helper()
	turn, err := c.ACOPF.Run(context.Background(), "Solve IEEE 14")
	if err != nil {
		t.Fatal(err)
	}
	if turn.ToolCalls == 0 {
		t.Fatal("turn made no tool call")
	}
	return turn
}

// TestToolTimeNotSleptOnRealClock: solver time has already elapsed on a
// real clock, so the agent must not sleep it again. The only sleeps are
// the simulated LLM latencies under AbsorbLatency, one per completion.
func TestToolTimeNotSleptOnRealClock(t *testing.T) {
	for _, absorb := range []bool{false, true} {
		clock := &sleepRecorder{}
		client := newLatencyRecorder(t)
		c := NewCoordinator(Config{Client: client, Clock: clock, AbsorbLatency: absorb})
		runSolveTurn(t, c)

		want := []time.Duration(nil)
		if absorb {
			want = client.lats
		}
		if len(clock.sleeps) != len(want) {
			t.Fatalf("AbsorbLatency=%v: %d sleeps %v, want %d %v",
				absorb, len(clock.sleeps), clock.sleeps, len(want), want)
		}
		for i := range want {
			if clock.sleeps[i] != want[i] {
				t.Fatalf("AbsorbLatency=%v: sleep %d is %v, want completion latency %v",
					absorb, i, clock.sleeps[i], want[i])
			}
		}
	}
}

// TestSimClockChargesToolTime: on a virtual clock a turn's latency is
// exactly its completions' latencies plus its tools' solver time.
func TestSimClockChargesToolTime(t *testing.T) {
	client := newLatencyRecorder(t)
	c := NewCoordinator(Config{
		Client:        client,
		Clock:         simclock.NewSim(time.Date(2025, 9, 2, 0, 0, 0, 0, time.UTC)),
		AbsorbLatency: true,
	})
	turn := runSolveTurn(t, c)

	var want time.Duration
	for _, lat := range client.lats {
		want += lat
	}
	for _, s := range turn.Steps {
		want += s.ToolLat
	}
	if turn.Latency != want {
		t.Fatalf("turn latency %v, want completions + tool time = %v", turn.Latency, want)
	}
}
