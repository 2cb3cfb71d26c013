// Package gateway is GridMind's resilient LLM front: one llm.Client over
// N named deployments, with pluggable routing, per-deployment circuit
// breakers, health probing, bounded retry with jittered backoff, and
// fallback chains. The GridMind paper reaches its models through a proxy
// gateway; this package is that proxy as a library, built so a single
// flaky backend degrades into rerouted traffic instead of failed asks.
//
// Time is injectable (Config.Now / Config.Sleep) and all randomness is
// seeded, so every breaker transition and retry schedule is reproducible
// in tests — the chaos suite asserts on exact counters, never timing.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridmind/internal/llm"
	"gridmind/internal/obs"
)

// Deployment names one backend the gateway can route to.
type Deployment struct {
	// Name identifies the deployment in stats and logs; must be unique.
	Name string
	// Client is the wrapped backend: HTTP, sim, fault-injected, anything.
	Client llm.Client
	// Weight biases the weighted strategy; <=0 means 1.
	Weight int
	// Priority orders the priority strategy; lower is preferred.
	Priority int
}

// RetryConfig bounds the gateway's retry loop. Zero values select the
// defaults noted per field.
type RetryConfig struct {
	// MaxAttempts caps total attempts per request across all deployments (4).
	MaxAttempts int
	// BaseBackoff is the first retry delay (100ms); it doubles per attempt.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (2s).
	MaxBackoff time.Duration
	// Jitter spreads each delay by ±Jitter fraction (0.2).
	Jitter float64
	// AttemptTimeout bounds each single attempt (60s) so a stalled backend
	// surrenders the request to the fallback chain; <0 disables.
	AttemptTimeout time.Duration
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.Jitter <= 0 {
		c.Jitter = 0.2
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 60 * time.Second
	}
	return c
}

// Config assembles a Gateway.
type Config struct {
	// Name labels the gateway in errors and metrics; default "gateway".
	Name string
	// ModelName is what Model() reports; default: first deployment's model.
	ModelName string
	// Strategy picks the routing policy; default priority.
	Strategy Strategy
	// Breaker applies to every deployment's circuit breaker.
	Breaker BreakerConfig
	// Retry bounds the retry/backoff loop.
	Retry RetryConfig
	// Health configures the background health checker (off by default).
	Health HealthConfig
	// Seed anchors backoff jitter; same seed, same schedule.
	Seed int64
	// Now and Sleep are injectable for deterministic tests; defaults are
	// the real clock and a context-preemptable timer sleep.
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
	// Metrics is the obs registry the gateway publishes its counters,
	// breaker states, and EWMA latency on, labelled by gateway and
	// deployment name. Nil selects a fresh private registry so tests that
	// pin exact counters stay isolated; the server passes the engine's
	// registry so one scrape covers the whole process.
	Metrics *obs.Registry
}

// deployment is a Deployment plus its runtime state. The counters are
// obs registry instruments labelled {gateway, deployment}, read through
// the registry like every other counter.
type deployment struct {
	Deployment
	idx int
	br  *breaker

	ewma      atomic.Int64 // EWMA latency, nanoseconds (routing input)
	curWeight int64        // smooth-WRR credit, guarded by Gateway.wrrMu

	attempts  *obs.Counter
	successes *obs.Counter
	failures  *obs.Counter
	timeouts  *obs.Counter
	probes    *obs.Counter
	latency   *obs.Histogram
}

// Gateway routes llm.Client traffic across deployments. It is safe for
// concurrent use.
type Gateway struct {
	cfg        Config
	deps       []*deployment
	byPriority []*deployment

	rr    atomic.Uint64 // round-robin cursor
	wrrMu sync.Mutex    // smooth-WRR credits

	jmu    sync.Mutex
	jitter *rand.Rand

	met       *obs.Registry
	requests  *obs.Counter
	succeeded *obs.Counter
	failed    *obs.Counter
	retries   *obs.Counter
	exhausted *obs.Counter

	healthStop chan struct{}
	healthDone chan struct{}
}

// New builds a Gateway over the given deployments.
func New(deps []Deployment, cfg Config) (*Gateway, error) {
	if len(deps) == 0 {
		return nil, errors.New("gateway: no deployments")
	}
	if cfg.Name == "" {
		cfg.Name = "gateway"
	}
	var err error
	if cfg.Strategy, err = ParseStrategy(string(cfg.Strategy)); err != nil {
		return nil, err
	}
	cfg.Retry = cfg.Retry.withDefaults()
	cfg.Health = cfg.Health.withDefaults()
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Sleep == nil {
		cfg.Sleep = realSleep
	}
	met := cfg.Metrics
	if met == nil {
		met = obs.NewRegistry()
	}
	g := &Gateway{cfg: cfg, jitter: rand.New(rand.NewSource(cfg.Seed)), met: met}
	gw := cfg.Name
	g.requests = met.Counter("gridmind_gateway_requests_total", "Requests entering the gateway.", "gateway", gw)
	g.succeeded = met.Counter("gridmind_gateway_requests_succeeded_total", "Requests answered by some deployment.", "gateway", gw)
	g.failed = met.Counter("gridmind_gateway_requests_failed_total", "Requests that failed after routing/retry.", "gateway", gw)
	g.retries = met.Counter("gridmind_gateway_retries_total", "Attempts beyond each request's first.", "gateway", gw)
	g.exhausted = met.Counter("gridmind_gateway_retry_exhausted_total", "Requests that spent the whole retry budget.", "gateway", gw)
	seen := map[string]bool{}
	for i, d := range deps {
		if d.Client == nil {
			return nil, fmt.Errorf("gateway: deployment %q has no client", d.Name)
		}
		if d.Name == "" {
			return nil, fmt.Errorf("gateway: deployment %d has no name", i)
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("gateway: duplicate deployment name %q", d.Name)
		}
		seen[d.Name] = true
		dep := &deployment{
			Deployment: d,
			idx:        i,
			br:         newBreaker(cfg.Breaker, cfg.Now),
			attempts:   met.Counter("gridmind_gateway_deployment_attempts_total", "Attempts routed to a deployment.", "gateway", gw, "deployment", d.Name),
			successes:  met.Counter("gridmind_gateway_deployment_successes_total", "Successful attempts per deployment.", "gateway", gw, "deployment", d.Name),
			failures:   met.Counter("gridmind_gateway_deployment_failures_total", "Failed attempts per deployment.", "gateway", gw, "deployment", d.Name),
			timeouts:   met.Counter("gridmind_gateway_deployment_timeouts_total", "Attempt-timeout failures per deployment.", "gateway", gw, "deployment", d.Name),
			probes:     met.Counter("gridmind_gateway_deployment_probes_total", "Half-open breaker probes per deployment.", "gateway", gw, "deployment", d.Name),
			latency:    met.Histogram("gridmind_gateway_deployment_latency_seconds", "Successful-attempt latency per deployment.", nil, "gateway", gw, "deployment", d.Name),
		}
		br := dep.br
		met.GaugeFunc("gridmind_gateway_breaker_state", "Breaker state: 0 closed, 1 half-open, 2 open.",
			func() float64 { return breakerStateValue(br.State()) }, "gateway", gw, "deployment", d.Name)
		met.CounterFunc("gridmind_gateway_breaker_opens_total", "Breaker closed→open transitions.",
			func() float64 { o, _ := br.Counters(); return float64(o) }, "gateway", gw, "deployment", d.Name)
		met.CounterFunc("gridmind_gateway_breaker_closes_total", "Breaker →closed transitions.",
			func() float64 { _, c := br.Counters(); return float64(c) }, "gateway", gw, "deployment", d.Name)
		ew := &dep.ewma
		met.GaugeFunc("gridmind_gateway_deployment_ewma_latency_seconds", "EWMA latency the least-latency router steers by.",
			func() float64 { return time.Duration(ew.Load()).Seconds() }, "gateway", gw, "deployment", d.Name)
		g.deps = append(g.deps, dep)
	}
	g.byPriority = append([]*deployment(nil), g.deps...)
	sort.SliceStable(g.byPriority, func(i, j int) bool {
		return g.byPriority[i].Priority < g.byPriority[j].Priority
	})
	g.startHealth()
	return g, nil
}

// Model implements llm.Client.
func (g *Gateway) Model() string {
	if g.cfg.ModelName != "" {
		return g.cfg.ModelName
	}
	return g.deps[0].Client.Model()
}

// Complete implements llm.Client: route, attempt, classify, retry or fall
// back, honoring the caller's deadline throughout. A request fails only
// when (a) an error is terminal (4xx, malformed), (b) the retry budget is
// spent, (c) every breaker is open, or (d) the caller's context dies.
func (g *Gateway) Complete(ctx context.Context, req *llm.Request) (*llm.Response, error) {
	g.requests.Add(1)
	maxAttempts := g.cfg.Retry.MaxAttempts
	attempts := 0
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return nil, g.fail(attempts, fmt.Errorf("gateway %s: %w", g.cfg.Name, err))
		}
		progressed := false
		for _, d := range g.order() {
			if attempts >= maxAttempts {
				break
			}
			probe, ok := d.br.begin()
			if !ok {
				continue
			}
			progressed = true
			attempts++
			res, err := g.attempt(ctx, d, req, probe)
			if err == nil {
				g.succeeded.Add(1)
				g.retries.Add(int64(attempts - 1))
				return res, nil
			}
			lastErr = fmt.Errorf("deployment %s: %w", d.Name, err)
			if ctx.Err() != nil {
				return nil, g.fail(attempts, fmt.Errorf("gateway %s: %w", g.cfg.Name, lastErr))
			}
			if !retryable(err) {
				return nil, g.fail(attempts, fmt.Errorf("gateway %s: %w", g.cfg.Name, lastErr))
			}
			if attempts < maxAttempts {
				if serr := g.cfg.Sleep(ctx, g.backoffFor(attempts-1)); serr != nil {
					return nil, g.fail(attempts, fmt.Errorf("gateway %s: backoff interrupted: %w", g.cfg.Name, serr))
				}
			}
		}
		if !progressed {
			err := fmt.Errorf("gateway %s: %w", g.cfg.Name, llm.ErrUnavailable)
			if lastErr != nil {
				err = fmt.Errorf("gateway %s: %w (last: %v)", g.cfg.Name, llm.ErrUnavailable, lastErr)
			}
			return nil, g.fail(attempts, err)
		}
		if attempts >= maxAttempts {
			g.exhausted.Add(1)
			return nil, g.fail(attempts,
				fmt.Errorf("gateway %s: retry budget exhausted after %d attempts: %w", g.cfg.Name, attempts, lastErr))
		}
	}
}

// attempt runs one try against one deployment, bracketed by its breaker.
func (g *Gateway) attempt(ctx context.Context, d *deployment, req *llm.Request, probe bool) (*llm.Response, error) {
	d.attempts.Add(1)
	if probe {
		d.probes.Add(1)
	}
	actx := ctx
	if t := g.cfg.Retry.AttemptTimeout; t > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	start := g.cfg.Now()
	res, err := d.Client.Complete(actx, req)
	if err == nil {
		d.br.end(probe, false)
		d.successes.Add(1)
		sample := res.Latency
		if sample <= 0 {
			sample = g.cfg.Now().Sub(start)
		}
		d.observeLatency(int64(sample))
		d.latency.ObserveDuration(sample)
		return res, nil
	}
	if ctx.Err() != nil {
		// The caller's own deadline expired mid-attempt. That is not
		// evidence against the deployment, so don't feed the breaker a
		// failure for it.
		d.br.end(probe, false)
		return nil, err
	}
	d.failures.Add(1)
	if errors.Is(err, context.DeadlineExceeded) {
		d.timeouts.Add(1)
	}
	d.br.end(probe, breakerFailure(err))
	return nil, err
}

func (g *Gateway) fail(attempts int, err error) error {
	g.failed.Add(1)
	if attempts > 1 {
		g.retries.Add(int64(attempts - 1))
	}
	return err
}

// backoffFor returns the jittered delay after the n-th failed attempt
// (n from 0): Base·2ⁿ capped at Max, spread by ±Jitter.
func (g *Gateway) backoffFor(n int) time.Duration {
	d := g.cfg.Retry.BaseBackoff
	for i := 0; i < n && d < g.cfg.Retry.MaxBackoff; i++ {
		d *= 2
	}
	if d > g.cfg.Retry.MaxBackoff {
		d = g.cfg.Retry.MaxBackoff
	}
	g.jmu.Lock()
	f := 1 + g.cfg.Retry.Jitter*(2*g.jitter.Float64()-1)
	g.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

func realSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Metrics returns the obs registry the gateway publishes on.
func (g *Gateway) Metrics() *obs.Registry { return g.met }

// breakerStateValue orders breaker states by badness for the state gauge.
func breakerStateValue(s BreakerState) float64 {
	switch s {
	case StateHalfOpen:
		return 1
	case StateOpen:
		return 2
	default:
		return 0
	}
}
