// Package gridmind is the public API of GridMind-Go, a from-scratch Go
// reproduction of "GridMind: LLMs-Powered Agents for Power System
// Analysis and Operations" (Jin, Kim & Kwon, Argonne National Laboratory,
// 2025): a multi-agent AI system that couples conversational LLM agents
// with deterministic power-system solvers — AC optimal power flow and N-1
// contingency analysis — over strongly typed, schema-validated tools and
// a shared, versioned session context.
//
// # Quick start
//
//	gm := gridmind.New(gridmind.Options{Model: gridmind.ModelGPTO3})
//	ex, err := gm.Ask(context.Background(), "Solve IEEE 118")
//	fmt.Println(ex.Reply)
//
// Every numeric in a reply is pulled from stored structured solver
// results; the narration is audited against them before it is returned.
//
// The solvers are also usable directly, without any agent in the loop:
//
//	net, _ := gridmind.LoadCase("case118")
//	sol, _ := gridmind.SolveACOPF(net)
//	fmt.Println(sol.ObjectiveCost)
package gridmind

import (
	"context"
	"fmt"
	"io"
	"time"

	"gridmind/internal/agents"
	"gridmind/internal/cases"
	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/llm"
	"gridmind/internal/llm/gateway"
	"gridmind/internal/metrics"
	"gridmind/internal/model"
	"gridmind/internal/obs"
	"gridmind/internal/opf"
	"gridmind/internal/powerflow"
	"gridmind/internal/scenario"
	"gridmind/internal/session"
	"gridmind/internal/simclock"
)

// Re-exported domain types. These aliases are the stable public surface;
// the internal packages remain free to grow.
type (
	// Network is a complete power-system case.
	Network = model.Network
	// Summary is a case's component inventory (the paper's Table 2 row).
	Summary = model.Summary
	// ACOPFSolution is a solved optimal power flow (Appendix C schema).
	ACOPFSolution = opf.Solution
	// PowerFlowResult is a solved AC/DC power flow.
	PowerFlowResult = powerflow.Result
	// ContingencySet is a full N-1 sweep with ranking accessors.
	ContingencySet = contingency.ResultSet
	// OutageResult is one contingency's structured record.
	OutageResult = contingency.OutageResult
	// Exchange is a coordinated multi-agent reply.
	Exchange = agents.Exchange
	// Interaction is one instrumentation row.
	Interaction = metrics.Interaction
	// Quality is the solution-quality assessment schema.
	Quality = opf.Quality
	// Engine is the process-wide compiled-artifact store shared by
	// concurrent sessions (see Options.Engine and NewEngine).
	Engine = engine.Engine
	// Client is the chat-completion backend interface; see Options.Client.
	Client = llm.Client
	// Gateway is a resilient multi-deployment LLM client: routing,
	// per-deployment circuit breakers, health probing, retry/backoff and
	// fallback chains (see NewGateway).
	Gateway = gateway.Gateway
	// GatewayDeployment names one backend behind a Gateway.
	GatewayDeployment = gateway.Deployment
	// GatewayConfig tunes a Gateway's routing, breakers, retries, health.
	GatewayConfig = gateway.Config
	// GatewayStrategy names a Gateway routing policy ("priority",
	// "round-robin", "least-latency", "weighted").
	GatewayStrategy = gateway.Strategy
	// GatewayHealthConfig tunes a Gateway's background health probing.
	GatewayHealthConfig = gateway.HealthConfig
	// ScenarioOptions configures cascade studies, sweeps and episodes.
	ScenarioOptions = scenario.Options
	// CascadeEvent is one initiating disturbance for a cascade study.
	CascadeEvent = scenario.Event
	// CascadeResult is a full N-k cascade record: stage-by-stage trips,
	// violations and the terminal outcome.
	CascadeResult = scenario.CascadeResult
	// CascadeSweepResult aggregates cascades seeded from every in-service
	// branch outage.
	CascadeSweepResult = scenario.SweepResult
	// EpisodeStep is one operating point of a time-series episode.
	EpisodeStep = scenario.EpisodeStep
	// EpisodeResult aggregates a solved time-series episode.
	EpisodeResult = scenario.EpisodeResult
	// MCOptions configures Monte Carlo reliability sampling.
	MCOptions = scenario.MCOptions
	// MCResult is a Monte Carlo reliability estimate with Wilson 95%
	// confidence intervals.
	MCResult = scenario.MCResult
	// MetricsRegistry is the typed observability registry every layer
	// publishes on (counters, gauges, latency histograms); scrape it with
	// WritePrometheus. See Options.Metrics and (*GridMind).MetricsRegistry.
	MetricsRegistry = obs.Registry
)

// NewEngine returns a fresh shared artifact store. Hand the same engine to
// every gridmind.New call in a serving process so N sessions on the same
// case share one compilation instead of N; sessions created without one
// share a process-wide default.
func NewEngine() *Engine { return engine.New() }

// Evaluated model names (the paper's §4 set).
const (
	ModelGPT5       = llm.ModelGPT5
	ModelGPT5Mini   = llm.ModelGPT5Mini
	ModelGPT5Nano   = llm.ModelGPT5Nano
	ModelGPTO4Mini  = llm.ModelGPTO4Mini
	ModelGPTO3      = llm.ModelGPTO3
	ModelClaude4Son = llm.ModelClaude4Son
)

// Models lists the six evaluated model names.
func Models() []string { return llm.ModelNames() }

// CaseNames lists the supported IEEE cases.
func CaseNames() []string { return cases.Names() }

// LoadCase returns a fresh copy of a supported IEEE case ("case14",
// "IEEE 118", "300", ...).
func LoadCase(name string) (*Network, error) { return cases.Load(name) }

// CaseSummaries returns the Table 2 inventory.
func CaseSummaries() ([]Summary, error) { return cases.Summaries() }

// SolveACOPF runs the primal-dual interior-point AC optimal power flow.
func SolveACOPF(n *Network) (*ACOPFSolution, error) {
	return opf.SolveACOPF(n, opf.Options{})
}

// SolveDCOPF runs the linearized DC optimal power flow baseline.
func SolveDCOPF(n *Network) (*ACOPFSolution, error) {
	return opf.SolveDCOPF(n)
}

// SolvePowerFlow runs a Newton-Raphson AC power flow with reactive-limit
// enforcement.
func SolvePowerFlow(n *Network) (*PowerFlowResult, error) {
	return powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
}

// AnalyzeContingencies runs a full parallel N-1 sweep from the given base
// power flow.
func AnalyzeContingencies(n *Network, base *PowerFlowResult) (*ContingencySet, error) {
	return contingency.Analyze(n, base, contingency.Options{})
}

// AssessQuality scores a solution on the paper's 0-10 quality rubric.
func AssessQuality(n *Network, sol *ACOPFSolution) Quality {
	return opf.AssessQuality(n, sol)
}

// RunCascade propagates one initiating event through protection-style
// trip rounds (N-k) on the zero-clone stacked-view path.
func RunCascade(n *Network, base *PowerFlowResult, ev CascadeEvent, opts ScenarioOptions) (*CascadeResult, error) {
	return scenario.Cascade(n, base, ev, opts)
}

// RunCascadeSweep cascades every in-service branch outage as a seed,
// optionally DC pre-screening the provably non-cascading ones.
func RunCascadeSweep(n *Network, base *PowerFlowResult, opts ScenarioOptions) (*CascadeSweepResult, error) {
	return scenario.Sweep(n, base, opts)
}

// RunEpisode drives a time-series of operating points (load curve,
// dispatch overrides, maintenance outages) with warm-started re-solves.
func RunEpisode(n *Network, base *PowerFlowResult, steps []EpisodeStep, opts ScenarioOptions) (*EpisodeResult, error) {
	return scenario.Episode(n, base, steps, opts)
}

// RunReliabilityMC estimates loss-of-load, overload and cascade
// probabilities by seeded Monte Carlo sampling; fixed seeds replay
// bit-identically at any worker count.
func RunReliabilityMC(n *Network, base *PowerFlowResult, mo MCOptions) (*MCResult, error) {
	return scenario.RunMC(n, base, mo)
}

// Options configures a GridMind conversational session.
type Options struct {
	// Model selects a simulated backend profile (default ModelGPTO3).
	// Ignored when Endpoint is set.
	Model string
	// Endpoint, when non-empty, routes completions to a live
	// chat-completions HTTP endpoint instead of the simulated backend.
	Endpoint string
	// Salt seeds the simulated backend's randomness (run index).
	Salt int64
	// RealLatency makes simulated backend latency elapse on the wall
	// clock (off by default: latency is tracked on a virtual clock and
	// reported, not slept). Only the simulated LLM latency is slept;
	// solver time has already elapsed on the wall clock and is not slept
	// again.
	RealLatency bool
	// Engine, when non-nil, is the shared compiled-artifact store this
	// session draws from; nil selects the process-wide default engine.
	Engine *Engine
	// Client, when non-nil, is used directly as the LLM backend and takes
	// precedence over Model and Endpoint. This is how a session rides a
	// resilient multi-deployment Gateway (see NewGateway) or any custom
	// backend. Latency is recorded as reported by the client; the session
	// clock stays real, so a turn's latency is its wall time and nothing
	// is slept for the client or the tools.
	Client Client
	// Metrics, when non-nil, is the observability registry the session's
	// tool layer and per-agent instrumentation publish on; nil selects the
	// engine's registry. Embedders scrape it with WritePrometheus without
	// running the server (see MetricsRegistry()).
	Metrics *MetricsRegistry
}

// GridMind is a conversational session: planner, coordinator, the ACOPF
// and contingency agents, their tools, and the shared context.
type GridMind struct {
	coord    *agents.Coordinator
	recorder *metrics.Recorder
	clock    simclock.Clock
	start    time.Time
	met      *obs.Registry
}

// New creates a session.
func New(o Options) *GridMind {
	var client llm.Client
	switch {
	case o.Client != nil:
		client = o.Client
	case o.Endpoint != "":
		name := o.Model
		if name == "" {
			name = "remote"
		}
		client = &llm.HTTPClient{Endpoint: o.Endpoint, ModelName: name}
	default:
		name := o.Model
		if name == "" {
			name = ModelGPTO3
		}
		profile, ok := llm.ProfileByName(name)
		if !ok {
			profile, _ = llm.ProfileByName(ModelGPTO3)
			profile.Name = name
		}
		client = llm.NewSim(profile)
	}
	var clock simclock.Clock
	absorb := false
	// Only the plain in-process simulated backend runs on a virtual clock;
	// remote endpoints and injected clients (gateways may mix real and
	// simulated deployments) keep real time. Simulated latency is slept on
	// whichever clock the session has; compute that already elapsed (the
	// tools' solver time) is charged only to the virtual one.
	if o.Client == nil && o.Endpoint == "" && !o.RealLatency {
		clock = simclock.NewSim(time.Now())
		absorb = true
	} else {
		clock = simclock.Real{}
		absorb = o.RealLatency && o.Endpoint == "" && o.Client == nil
	}
	rec := metrics.NewRecorder()
	coord := agents.NewCoordinator(agents.Config{
		Client:        client,
		Clock:         clock,
		Recorder:      rec,
		Engine:        o.Engine,
		AbsorbLatency: absorb,
		Salt:          o.Salt,
		Metrics:       o.Metrics,
	})
	met := o.Metrics
	if met == nil {
		met = coord.Engine.Metrics()
	}
	return &GridMind{coord: coord, recorder: rec, clock: clock, start: clock.Now(), met: met}
}

// Engine returns the session's shared artifact store.
func (g *GridMind) Engine() *Engine { return g.coord.Engine }

// Ask routes one natural-language request through the planner and agents.
func (g *GridMind) Ask(ctx context.Context, query string) (*Exchange, error) {
	return g.coord.Handle(ctx, query)
}

// Session exposes the shared context for artifact inspection.
func (g *GridMind) Session() *session.Context { return g.coord.Session }

// Metrics returns all recorded interactions (the paper's per-turn
// instrumentation rows). For the typed counter/gauge/histogram registry,
// see MetricsRegistry.
func (g *GridMind) Metrics() []Interaction { return g.recorder.Rows() }

// MetricsRegistry returns the observability registry the session
// publishes on — the one from Options.Metrics, or the engine's when none
// was given. Embedders scrape it directly:
//
//	gm.MetricsRegistry().WritePrometheus(w)
func (g *GridMind) MetricsRegistry() *MetricsRegistry { return g.met }

// WriteMetricsCSV dumps the instrumentation log.
func (g *GridMind) WriteMetricsCSV(w io.Writer) error {
	rec := g.recorder
	return rec.WriteCSV(w)
}

// Workflow returns the accumulated multi-step workflow trace.
func (g *GridMind) Workflow() []agents.WorkflowStep { return g.coord.Workflow() }

// ElapsedSession returns total session time on the session clock
// (simulated seconds for simulated backends).
func (g *GridMind) ElapsedSession() time.Duration {
	return g.clock.Now().Sub(g.start)
}

// PersistSession serializes the session state for later resumption.
func (g *GridMind) PersistSession(w io.Writer) error {
	return g.coord.Session.Persist(w)
}

// RestoreSession replaces the live session with a previously persisted
// one (the §3.4 "seamless resumption"): the agents and tools are rebound
// to the restored context.
func (g *GridMind) RestoreSession(r io.Reader) error {
	sess, err := session.RestoreWithEngine(r, g.clock.Now, g.coord.Engine)
	if err != nil {
		return err
	}
	g.coord = agents.NewCoordinator(agents.Config{
		Client:        g.coord.ACOPF.Client,
		Clock:         g.clock,
		Recorder:      g.recorder,
		Session:       sess,
		Engine:        g.coord.Engine,
		AbsorbLatency: g.coord.ACOPF.AbsorbLatency,
		Salt:          g.coord.ACOPF.Salt,
		Metrics:       g.met,
	})
	return nil
}

// NewGateway builds a resilient LLM client over the named deployments:
// pluggable routing (priority, round-robin, least-latency, weighted),
// per-deployment circuit breakers with half-open probing, background
// health checks, capped-exponential retry with jitter, and fallback
// chains. Pass it to New via Options.Client.
func NewGateway(deps []GatewayDeployment, cfg GatewayConfig) (*Gateway, error) {
	return gateway.New(deps, cfg)
}

// NewSimClient returns the deterministic simulated backend for one of the
// evaluated model profiles, for use as a Gateway deployment.
func NewSimClient(model string) (Client, error) {
	profile, ok := llm.ProfileByName(model)
	if !ok {
		return nil, fmt.Errorf("gridmind: unknown model %q (supported: %v)", model, Models())
	}
	return llm.NewSim(profile), nil
}

// NewHTTPClient returns a chat-completions client for a live endpoint,
// for use as a Gateway deployment.
func NewHTTPClient(endpoint, model string) Client {
	return &llm.HTTPClient{Endpoint: endpoint, ModelName: model}
}

// ValidateModel returns an error when the model name is not one of the
// evaluated profiles.
func ValidateModel(name string) error {
	if _, ok := llm.ProfileByName(name); !ok {
		return fmt.Errorf("gridmind: unknown model %q (supported: %v)", name, Models())
	}
	return nil
}
