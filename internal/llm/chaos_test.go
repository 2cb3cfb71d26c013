package llm

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestFaultClientDeterminism pins the chaos harness contract: the same
// spec and the same call sequence inject the same faults in the same
// order, so breaker tests built on it can assert exact counters.
func TestFaultClientDeterminism(t *testing.T) {
	p := mustProfile(t, ModelGPT5Mini)
	spec := FaultSpec{Seed: 11, ErrorRate: 0.4, MalformedRate: 0.1, SpikeRate: 0.2, Spike: 3 * time.Second}
	run := func() ([]string, FaultStats) {
		fc := NewFaultClient(NewSim(p), spec)
		var out []string
		for i := 0; i < 60; i++ {
			res, err := fc.Complete(context.Background(), userReq(nil, "summarize the grid state"))
			if err != nil {
				out = append(out, err.Error())
				continue
			}
			out = append(out, fmt.Sprintf("ok latency=%v", res.Latency))
		}
		return out, fc.Stats()
	}
	a, as := run()
	b, bs := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical specs produced different fault sequences")
	}
	if as != bs {
		t.Fatalf("fault counters diverged: %+v vs %+v", as, bs)
	}
	if as.Errors == 0 || as.Malformed == 0 || as.Spikes == 0 {
		t.Fatalf("expected every enabled fault class to fire over 60 calls: %+v", as)
	}
	if as.Calls != 60 {
		t.Fatalf("calls = %d, want 60", as.Calls)
	}
}

// TestFaultClientClassification pins the error types the gateway's
// classifier depends on.
func TestFaultClientClassification(t *testing.T) {
	p := mustProfile(t, ModelGPT5Mini)
	fc := NewFaultClient(NewSim(p), FaultSpec{ErrorRate: 1, ErrorStatus: 429})
	_, err := fc.Complete(context.Background(), userReq(nil, "hello"))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 429 {
		t.Fatalf("injected error %v, want status 429", err)
	}
	fc = NewFaultClient(NewSim(p), FaultSpec{MalformedRate: 1})
	_, err = fc.Complete(context.Background(), userReq(nil, "hello"))
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("injected malformed error = %v, want ErrMalformed", err)
	}
}

// TestFaultClientStallHonorsContext: a stalled call must release the
// caller as soon as its context expires — never hold it for the full
// stall — so per-attempt timeouts can preempt hung backends.
func TestFaultClientStallHonorsContext(t *testing.T) {
	p := mustProfile(t, ModelGPT5Mini)
	fc := NewFaultClient(NewSim(p), FaultSpec{StallRate: 1, Stall: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := fc.Complete(ctx, userReq(nil, "hello"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled call returned %v, want context.DeadlineExceeded", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("stalled call held the caller %v past its deadline", e)
	}
	if s := fc.Stats(); s.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", s.Stalls)
	}
}
