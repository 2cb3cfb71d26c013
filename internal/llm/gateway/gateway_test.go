package gateway

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gridmind/internal/llm"
)

// --- test fixtures -------------------------------------------------------

// fakeClock is a manually-advanced clock for deterministic breaker time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// instantSleep skips backoff waits but still honors a dead context.
func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// stubClient is a scriptable llm.Client.
type stubClient struct {
	mu      sync.Mutex
	err     error
	latency time.Duration
	calls   int
}

func (s *stubClient) Model() string { return "stub" }

func (s *stubClient) setErr(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

func (s *stubClient) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *stubClient) Complete(ctx context.Context, req *llm.Request) (*llm.Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.err != nil {
		return nil, s.err
	}
	lat := s.latency
	if lat == 0 {
		lat = time.Millisecond
	}
	return &llm.Response{
		Message: llm.Message{Role: llm.RoleAssistant, Content: "ok"},
		Latency: lat,
	}, nil
}

func simProfile(t *testing.T) llm.Profile {
	t.Helper()
	p, ok := llm.ProfileByName(llm.ModelGPT5Mini)
	if !ok {
		t.Fatal("profile missing")
	}
	return p
}

func ask() *llm.Request {
	return &llm.Request{Messages: []llm.Message{
		{Role: llm.RoleUser, Content: "summarize the current grid state"},
	}}
}

func mustGateway(t *testing.T, deps []Deployment, cfg Config) *Gateway {
	t.Helper()
	g, err := New(deps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// dep returns the named deployment; tests read its counter handles and
// breaker directly.
func dep(t *testing.T, g *Gateway, name string) *deployment {
	t.Helper()
	for _, d := range g.deps {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no deployment %q", name)
	return nil
}

// --- the ISSUE acceptance scenario ---------------------------------------

// runChaosScenario drives the acceptance setup: a 3-deployment gateway
// (healthy sim, 50%-fault-injected sim, dead endpoint) through 200 asks.
// At ask 100 the dead endpoint comes back (a live llm.Handler server) and
// the virtual clock jumps past the breaker cooldown, so recovery happens
// via half-open probes. Returns the gateway for its counters.
func runChaosScenario(t *testing.T) *Gateway {
	t.Helper()
	p := simProfile(t)
	healthy := llm.NewSim(p)
	faulty := llm.NewFaultClient(llm.NewSim(p), llm.FaultSpec{Seed: 7, ErrorRate: 0.5})
	dead := &llm.HTTPClient{Endpoint: "http://127.0.0.1:1/v1/chat/completions", ModelName: p.Name}

	clk := newFakeClock()
	g := mustGateway(t, []Deployment{
		{Name: "healthy", Client: healthy},
		{Name: "faulty", Client: faulty},
		{Name: "dead", Client: dead},
	}, Config{
		Strategy: StrategyRoundRobin,
		Breaker: BreakerConfig{
			Window: 8, MinSamples: 4, FailureRatio: 0.5,
			OpenTimeout: 15 * time.Second, HalfOpenSuccesses: 2,
		},
		Retry: RetryConfig{MaxAttempts: 4, AttemptTimeout: -1},
		Seed:  42,
		Now:   clk.Now,
		Sleep: instantSleep,
	})

	for i := 0; i < 200; i++ {
		if i == 100 {
			// The dead deployment comes back to life: a real HTTP server
			// fronting a sim backend. Then the clock passes the cooldown so
			// the next routing decision admits a half-open probe.
			revived := httptest.NewServer(llm.Handler(llm.NewSim(p)))
			t.Cleanup(revived.Close)
			dead.Endpoint = revived.URL
			clk.Advance(16 * time.Second)
		}
		if _, err := g.Complete(context.Background(), ask()); err != nil {
			t.Fatalf("ask %d failed through the gateway: %v", i, err)
		}
	}
	return g
}

// normalize is the gateway's Prometheus exposition minus the wall-clock
// families (attempt latency and its EWMA): every remaining line is an exact
// counter, breaker state or transition count.
func normalize(t *testing.T, g *Gateway) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, "gridmind_gateway_deployment_latency_seconds") &&
			!strings.Contains(line, "gridmind_gateway_deployment_ewma_latency_seconds") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// TestChaosRunAcceptance is the ISSUE 6 acceptance criterion: 200 asks,
// zero caller-visible failures, the dead deployment's breaker opens within
// its threshold and recovers via half-open probes — all asserted on exact
// counters, and the whole scenario replayed to prove determinism.
func TestChaosRunAcceptance(t *testing.T) {
	g := runChaosScenario(t)

	if r, s, f := g.requests.Value(), g.succeeded.Value(), g.failed.Value(); r != 200 || s != 200 || f != 0 {
		t.Fatalf("requests/succeeded/failed = %d/%d/%d, want 200/200/0", r, s, f)
	}

	dead := dep(t, g, "dead")
	// The breaker trips on exactly the MinSamples-th consecutive failure
	// (ratio 4/4 ≥ 0.5) and never re-trips after recovery.
	if f := dead.failures.Value(); f != 4 {
		t.Fatalf("dead deployment failures = %d, want exactly 4 (MinSamples)", f)
	}
	if opens, closes := dead.br.Counters(); opens != 1 || closes != 1 {
		t.Fatalf("dead breaker opens/closes = %d/%d, want 1/1", opens, closes)
	}
	if st := dead.br.State(); st != StateClosed {
		t.Fatalf("dead breaker final state = %s, want closed", st)
	}
	if p := dead.probes.Value(); p != 2 {
		t.Fatalf("dead breaker probes = %d, want exactly HalfOpenSuccesses=2", p)
	}
	if dead.successes.Value() == 0 {
		t.Fatal("recovered deployment served no traffic after closing")
	}

	healthy := dep(t, g, "healthy")
	if f := healthy.failures.Value(); f != 0 {
		t.Fatalf("healthy deployment recorded %d failures", f)
	}
	faulty := dep(t, g, "faulty")
	if faulty.failures.Value() == 0 {
		t.Fatal("fault-injected deployment recorded no failures: chaos not wired")
	}

	// Retry accounting closes exactly: every request succeeded, so each
	// failed attempt corresponds to one retry.
	totalFailures := dead.failures.Value() + faulty.failures.Value() + healthy.failures.Value()
	if r := g.retries.Value(); r != totalFailures {
		t.Fatalf("retries = %d, want = total failed attempts %d", r, totalFailures)
	}

	// Determinism: the identical seeded scenario yields identical counters.
	if a, b := normalize(t, g), normalize(t, runChaosScenario(t)); a != b {
		t.Fatalf("seeded chaos scenario is not deterministic:\n run1:\n%s\n run2:\n%s", a, b)
	}
}

// --- routing / fallback ---------------------------------------------------

// TestPriorityFallbackChain: the priority strategy prefers the lowest
// priority number and falls through, in order, on retryable failure.
func TestPriorityFallbackChain(t *testing.T) {
	first := &stubClient{err: &llm.StatusError{Code: 503, Msg: "down"}}
	second := &stubClient{}
	third := &stubClient{}
	clk := newFakeClock()
	g := mustGateway(t, []Deployment{
		{Name: "third", Client: third, Priority: 2},
		{Name: "first", Client: first, Priority: 0},
		{Name: "second", Client: second, Priority: 1},
	}, Config{Strategy: StrategyPriority, Now: clk.Now, Sleep: instantSleep})

	if _, err := g.Complete(context.Background(), ask()); err != nil {
		t.Fatal(err)
	}
	if first.callCount() != 1 || second.callCount() != 1 || third.callCount() != 0 {
		t.Fatalf("calls first/second/third = %d/%d/%d, want 1/1/0: fallback must follow priority order",
			first.callCount(), second.callCount(), third.callCount())
	}
}

// TestRoundRobinSpread: the rotation hands each deployment an equal share.
func TestRoundRobinSpread(t *testing.T) {
	a, b, c := &stubClient{}, &stubClient{}, &stubClient{}
	clk := newFakeClock()
	g := mustGateway(t, []Deployment{
		{Name: "a", Client: a}, {Name: "b", Client: b}, {Name: "c", Client: c},
	}, Config{Strategy: StrategyRoundRobin, Now: clk.Now, Sleep: instantSleep})
	for i := 0; i < 9; i++ {
		if _, err := g.Complete(context.Background(), ask()); err != nil {
			t.Fatal(err)
		}
	}
	if a.callCount() != 3 || b.callCount() != 3 || c.callCount() != 3 {
		t.Fatalf("round-robin spread = %d/%d/%d, want 3/3/3", a.callCount(), b.callCount(), c.callCount())
	}
}

// TestWeightedSpread: smooth WRR distributes 3:1 over weights 3 and 1.
func TestWeightedSpread(t *testing.T) {
	heavy, light := &stubClient{}, &stubClient{}
	clk := newFakeClock()
	g := mustGateway(t, []Deployment{
		{Name: "heavy", Client: heavy, Weight: 3},
		{Name: "light", Client: light, Weight: 1},
	}, Config{Strategy: StrategyWeighted, Now: clk.Now, Sleep: instantSleep})
	for i := 0; i < 8; i++ {
		if _, err := g.Complete(context.Background(), ask()); err != nil {
			t.Fatal(err)
		}
	}
	if heavy.callCount() != 6 || light.callCount() != 2 {
		t.Fatalf("weighted spread = %d/%d, want 6/2", heavy.callCount(), light.callCount())
	}
}

// TestLeastLatencyPrefersFast: after sampling both backends, traffic
// settles on the lower-EWMA deployment.
func TestLeastLatencyPrefersFast(t *testing.T) {
	slow := &stubClient{latency: 80 * time.Millisecond}
	fast := &stubClient{latency: time.Millisecond}
	clk := newFakeClock()
	g := mustGateway(t, []Deployment{
		{Name: "slow", Client: slow},
		{Name: "fast", Client: fast},
	}, Config{Strategy: StrategyLeastLatency, Now: clk.Now, Sleep: instantSleep})
	for i := 0; i < 6; i++ {
		if _, err := g.Complete(context.Background(), ask()); err != nil {
			t.Fatal(err)
		}
	}
	// Request 1 samples "slow" (listed first, both unsampled), request 2
	// samples "fast" (EWMA 0 sorts ahead of 80ms), then "fast" wins every
	// remaining pick.
	if slow.callCount() != 1 || fast.callCount() != 5 {
		t.Fatalf("least-latency spread slow/fast = %d/%d, want 1/5", slow.callCount(), fast.callCount())
	}
}

// --- retry / classification ----------------------------------------------

// TestRetryBudgetExhaustion: a persistently-failing fleet burns exactly
// MaxAttempts attempts and reports exhaustion.
func TestRetryBudgetExhaustion(t *testing.T) {
	bad := &stubClient{err: &llm.StatusError{Code: 503, Msg: "down"}}
	clk := newFakeClock()
	g := mustGateway(t, []Deployment{{Name: "bad", Client: bad}}, Config{
		Retry: RetryConfig{MaxAttempts: 3, AttemptTimeout: -1},
		// Keep the breaker out of the way so the budget is what stops us.
		Breaker: BreakerConfig{Window: 100, MinSamples: 50},
		Now:     clk.Now, Sleep: instantSleep,
	})
	_, err := g.Complete(context.Background(), ask())
	if err == nil {
		t.Fatal("expected failure")
	}
	var se *llm.StatusError
	if !errors.As(err, &se) || se.Code != 503 {
		t.Fatalf("exhaustion error lost the last cause: %v", err)
	}
	if bad.callCount() != 3 {
		t.Fatalf("attempts = %d, want MaxAttempts = 3", bad.callCount())
	}
	if e, f, r := g.exhausted.Value(), g.failed.Value(), g.retries.Value(); e != 1 || f != 1 || r != 2 {
		t.Fatalf("exhausted/failed/retries = %d/%d/%d, want 1/1/2", e, f, r)
	}
}

// TestTerminalErrorFailsFast: a 400 must not be retried, must not trip
// the breaker (the backend answered), and must surface its status.
func TestTerminalErrorFailsFast(t *testing.T) {
	bad := &stubClient{err: &llm.StatusError{Code: 400, Msg: "bad request"}}
	fallback := &stubClient{}
	clk := newFakeClock()
	g := mustGateway(t, []Deployment{
		{Name: "bad", Client: bad, Priority: 0},
		{Name: "fallback", Client: fallback, Priority: 1},
	}, Config{Strategy: StrategyPriority, Now: clk.Now, Sleep: instantSleep})
	_, err := g.Complete(context.Background(), ask())
	var se *llm.StatusError
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("terminal error %v, want status 400", err)
	}
	if bad.callCount() != 1 || fallback.callCount() != 0 {
		t.Fatalf("calls bad/fallback = %d/%d, want 1/0: terminal errors must not retry or fall back",
			bad.callCount(), fallback.callCount())
	}
	if st := dep(t, g, "bad").br.State(); st != StateClosed {
		t.Fatalf("a 4xx tripped the breaker: state = %s", st)
	}
}

// TestAllBreakersOpenReturnsUnavailable: once every breaker is open the
// gateway fails fast with llm.ErrUnavailable instead of burning budget.
func TestAllBreakersOpenReturnsUnavailable(t *testing.T) {
	bad := &stubClient{err: &llm.StatusError{Code: 503, Msg: "down"}}
	clk := newFakeClock()
	g := mustGateway(t, []Deployment{{Name: "bad", Client: bad}}, Config{
		Breaker: BreakerConfig{Window: 4, MinSamples: 1, FailureRatio: 0.1,
			OpenTimeout: time.Minute, HalfOpenSuccesses: 1},
		Retry: RetryConfig{MaxAttempts: 4, AttemptTimeout: -1},
		Now:   clk.Now, Sleep: instantSleep,
	})
	// First request: one attempt trips the breaker, then no deployment
	// remains → unavailable.
	_, err := g.Complete(context.Background(), ask())
	if !errors.Is(err, llm.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	calls := bad.callCount()
	if calls != 1 {
		t.Fatalf("attempts before trip = %d, want 1 (MinSamples=1)", calls)
	}
	// Subsequent requests don't touch the backend at all.
	_, err = g.Complete(context.Background(), ask())
	if !errors.Is(err, llm.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if bad.callCount() != calls {
		t.Fatal("open breaker still let traffic through")
	}
}

// TestBackoffPreemptedByDeadline: a caller deadline interrupts a long
// backoff sleep immediately — the gateway never outlives its context.
func TestBackoffPreemptedByDeadline(t *testing.T) {
	bad := &stubClient{err: &llm.StatusError{Code: 503, Msg: "down"}}
	g := mustGateway(t, []Deployment{{Name: "bad", Client: bad}}, Config{
		Retry: RetryConfig{
			MaxAttempts: 4, BaseBackoff: 10 * time.Second, MaxBackoff: 10 * time.Second,
			AttemptTimeout: -1,
		},
		Breaker: BreakerConfig{Window: 100, MinSamples: 50},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := g.Complete(ctx, ask())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("backoff sleep ignored the caller's deadline: took %v", e)
	}
}

// TestAttemptTimeoutPreemptsStall: a hung backend (chaos stall) is cut
// off by the per-attempt timeout and the request falls back and succeeds.
func TestAttemptTimeoutPreemptsStall(t *testing.T) {
	p := simProfile(t)
	hung := llm.NewFaultClient(llm.NewSim(p), llm.FaultSpec{StallRate: 1, Stall: time.Hour})
	healthy := &stubClient{}
	g := mustGateway(t, []Deployment{
		{Name: "hung", Client: hung, Priority: 0},
		{Name: "healthy", Client: healthy, Priority: 1},
	}, Config{
		Strategy: StrategyPriority,
		Retry:    RetryConfig{MaxAttempts: 3, AttemptTimeout: 50 * time.Millisecond},
		Sleep:    instantSleep,
	})
	start := time.Now()
	if _, err := g.Complete(context.Background(), ask()); err != nil {
		t.Fatalf("request did not survive the stalled deployment: %v", err)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("stall held the request %v: attempt timeout not applied", e)
	}
	hd := dep(t, g, "hung")
	if to, f := hd.timeouts.Value(), hd.failures.Value(); to != 1 || f != 1 {
		t.Fatalf("hung deployment timeouts/failures = %d/%d, want 1/1", to, f)
	}
	if healthy.callCount() != 1 {
		t.Fatalf("fallback calls = %d, want 1", healthy.callCount())
	}
}

// --- health checker -------------------------------------------------------

// TestHealthCheckerDemotesAndRestores: probe failures trip the breaker
// before user traffic has to discover the outage; once the backend heals
// and the cooldown passes, probes restore it.
func TestHealthCheckerDemotesAndRestores(t *testing.T) {
	backend := &stubClient{err: &llm.StatusError{Code: 503, Msg: "down"}}
	clk := newFakeClock()
	g := mustGateway(t, []Deployment{{Name: "only", Client: backend}}, Config{
		Breaker: BreakerConfig{Window: 4, MinSamples: 2, FailureRatio: 0.5,
			OpenTimeout: time.Second, HalfOpenSuccesses: 1},
		Retry: RetryConfig{AttemptTimeout: -1},
		Now:   clk.Now, Sleep: instantSleep,
	})

	// Two failing probes demote the deployment.
	g.CheckNow(context.Background())
	g.CheckNow(context.Background())
	only := dep(t, g, "only")
	if st := only.br.State(); st != StateOpen {
		t.Fatalf("state after 2 failed probes = %s, want open (demoted)", st)
	}
	if _, err := g.Complete(context.Background(), ask()); !errors.Is(err, llm.ErrUnavailable) {
		t.Fatalf("demoted deployment still served: %v", err)
	}

	// Healing the backend is not enough while the cooldown holds.
	backend.setErr(nil)
	g.CheckNow(context.Background())
	if st := only.br.State(); st != StateOpen {
		t.Fatalf("probe ignored the cooldown: state = %s", st)
	}

	// Past the cooldown, one good probe restores it.
	clk.Advance(2 * time.Second)
	g.CheckNow(context.Background())
	if st := only.br.State(); st != StateClosed {
		t.Fatalf("state after healing probe = %s, want closed (restored)", st)
	}
	if opens, closes := only.br.Counters(); opens != 1 || closes != 1 {
		t.Fatalf("opens/closes = %d/%d, want 1/1", opens, closes)
	}
	if _, err := g.Complete(context.Background(), ask()); err != nil {
		t.Fatalf("restored deployment rejected traffic: %v", err)
	}
}

// --- concurrency ----------------------------------------------------------

// TestConcurrentAsksThroughFlappingDeployment is the -race hammer:
// 8 goroutines × 25 asks through a 30%-faulty deployment with the
// background health checker running, and not one caller-visible failure.
func TestConcurrentAsksThroughFlappingDeployment(t *testing.T) {
	p := simProfile(t)
	flappy := llm.NewFaultClient(llm.NewSim(p), llm.FaultSpec{Seed: 3, ErrorRate: 0.3})
	healthy := llm.NewSim(p)
	g := mustGateway(t, []Deployment{
		{Name: "flappy", Client: flappy},
		{Name: "healthy", Client: healthy},
	}, Config{
		Strategy: StrategyRoundRobin,
		Breaker: BreakerConfig{Window: 6, MinSamples: 3, FailureRatio: 0.5,
			OpenTimeout: 5 * time.Millisecond, HalfOpenSuccesses: 1},
		Retry: RetryConfig{MaxAttempts: 6, BaseBackoff: 10 * time.Microsecond,
			MaxBackoff: 100 * time.Microsecond, AttemptTimeout: time.Minute},
		Health: HealthConfig{Interval: time.Millisecond},
		Seed:   9,
	})
	defer g.Close()

	const workers, asksPer = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*asksPer)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < asksPer; i++ {
				if _, err := g.Complete(context.Background(), ask()); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent ask failed: %v", err)
	}
	if r, s := g.requests.Value(), g.succeeded.Value(); r != workers*asksPer || s != workers*asksPer {
		t.Fatalf("requests/succeeded = %d/%d, want %d/%d", r, s, workers*asksPer, workers*asksPer)
	}
}

// TestGatewayValidation pins the constructor's input checking.
func TestGatewayValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("empty deployment list accepted")
	}
	c := &stubClient{}
	if _, err := New([]Deployment{{Name: "a", Client: c}, {Name: "a", Client: c}}, Config{}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := New([]Deployment{{Name: "a", Client: nil}}, Config{}); err == nil {
		t.Fatal("nil client accepted")
	}
	if _, err := New([]Deployment{{Name: "a", Client: c}}, Config{Strategy: "chaotic"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := ParseStrategy(""); err != nil {
		t.Fatal("empty strategy should default, not error")
	}
}
