// Command gridmind-server exposes GridMind over HTTP as a multi-session
// serving engine: a session manager routes each conversation to its own
// shared-context session while every session draws compiled artifacts
// (pristine cases, Ybus/topology, PTDF/LODF memos, interior-point KKT
// patterns, sweep solver contexts) from ONE process-wide engine, so N
// sessions on the same case pay for one compilation.
//
// Endpoints:
//
//	POST   /sessions              {"model": "..."}                → create a session
//	GET    /sessions                                              → live-session listing
//	DELETE /sessions/{id}                                         → drop a session (live or spilled)
//	POST   /sessions/{id}                                         → touch a session, restoring it from spill if needed
//	POST   /ask                   {"query": "...", "session_id"?} → coordinated reply
//	GET    /cases                                                 → Table 2 inventory
//	GET    /metrics                                               → Prometheus text exposition
//	POST   /v1/chat/completions   chat-completions dialect        → simulated backend
//
// /ask without a session_id uses a shared default session (the original
// single-tenant contract); it is admitted like any other session but never
// expires, is not listed and does not count as live. Sessions idle past
// -session-ttl expire; with -spill-dir they spill to disk instead and
// transparently restore on the next ask, so mostly-idle users stop holding
// RAM. The session manager changes its table and the spill directory only
// under its one lock, so a session lives in the table or in its spill
// file, never both, and is never spilled while an ask holds it. A restore
// runs under that lock too: admissions and the gridmind_sessions_live
// scrape wait for it, and gridmind_sessions_restore_latency_seconds
// measures that wait. The server drains gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gridmind"
	"gridmind/internal/llm"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelName := flag.String("model", gridmind.ModelGPTO3, "simulated model profile for the default session")
	sessionTTL := flag.Duration("session-ttl", 15*time.Minute, "idle session expiry (0 disables)")
	spillDir := flag.String("spill-dir", "", "directory for idle-expired session spill files; expired sessions persist there and restore on next touch (empty disables)")
	maxSessions := flag.Int("max-sessions", 1024, "live session cap (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 8, "in-flight ask cap per session; overflow gets 429 + Retry-After (0 = unbounded)")
	maxBody := flag.Int64("max-body", 1<<20, "request body size limit in bytes")
	gatewaySpec := flag.String("gateway", "",
		`comma-separated LLM deployments "name=model-or-URL[@weight]"; when set, all sessions ride one resilient gateway (e.g. "primary=https://host/v1/chat/completions@3,backup=gpt-5-mini")`)
	gatewayStrategy := flag.String("gateway-strategy", "priority", "gateway routing: priority, round-robin, least-latency or weighted")
	gatewayHealth := flag.Duration("gateway-health", 30*time.Second, "gateway background health-probe interval (0 disables)")
	workerMode := flag.Bool("worker", false, "serve as a contingency-fleet worker (POST /shard, GET /healthz, GET /metrics) instead of the session server")
	workerID := flag.String("worker-id", "", "worker name reported in shard responses (default: the listen address)")
	artifactDir := flag.String("artifact-dir", "", "persistent compiled-artifact store directory; a worker warms each case from it (skipping Ybus/topology/PTDF/ordering compiles) and persists cold compiles back (empty disables)")
	workerKillAfter := flag.Int("worker-kill-after", 0, "TEST HOOK: exit the worker process before answering shard request N+1, simulating mid-sweep death (0 disables)")
	flag.Parse()
	if err := gridmind.ValidateModel(*modelName); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// The engine comes first: its obs registry is the process-wide metrics
	// surface the gateway, manager and every session publish on.
	eng := gridmind.NewEngine()
	met := eng.Metrics()

	if *workerMode {
		runWorker(*addr, *workerID, *artifactDir, *workerKillAfter, eng, met)
		return
	}

	var gw *gridmind.Gateway
	if *gatewaySpec != "" {
		var err error
		gw, err = buildGateway(*gatewaySpec, *gatewayStrategy, *gatewayHealth, met)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer gw.Close()
	}

	factory := func(model string) *gridmind.GridMind {
		if gw != nil {
			return gridmind.New(gridmind.Options{Model: model, Client: gw, Engine: eng})
		}
		return gridmind.New(gridmind.Options{Model: model, Engine: eng})
	}
	mgr := newSessionManager(factory, *modelName, *sessionTTL, *maxSessions, *maxQueue, *spillDir, met)
	defer mgr.close()

	profile, _ := llm.ProfileByName(*modelName)
	srv := &server{
		mgr:     mgr,
		eng:     eng,
		met:     met,
		sim:     llm.Handler(llm.NewSim(profile)),
		maxBody: *maxBody,
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: SIGINT/SIGTERM stop accepting and drain in-flight
	// requests instead of dying mid-solve under a bare log.Fatal.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("gridmind-server listening on %s (default model %s, session ttl %s, max sessions %d)",
		*addr, *modelName, *sessionTTL, *maxSessions)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Printf("gridmind-server: shutdown signal received, draining")
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer shutCancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("gridmind-server: forced shutdown: %v", err)
		}
	}
}

// buildGateway parses the -gateway deployment list. Each entry is
// "name=model-or-URL[@weight]": an http(s) URL becomes a chat-completions
// deployment, a model name becomes a simulated one. List order sets
// priority (first = most preferred).
func buildGateway(spec, strategy string, health time.Duration, met *gridmind.MetricsRegistry) (*gridmind.Gateway, error) {
	var deps []gridmind.GatewayDeployment
	for i, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, target, ok := strings.Cut(item, "=")
		if !ok || name == "" || target == "" {
			return nil, fmt.Errorf("-gateway: entry %q is not name=model-or-URL[@weight]", item)
		}
		weight := 1
		if base, w, ok := strings.Cut(target, "@"); ok {
			n, err := strconv.Atoi(w)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("-gateway: entry %q has a bad weight %q", item, w)
			}
			target, weight = base, n
		}
		var client gridmind.Client
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
			client = gridmind.NewHTTPClient(target, name)
		} else {
			var err error
			if client, err = gridmind.NewSimClient(target); err != nil {
				return nil, fmt.Errorf("-gateway: entry %q: %w", item, err)
			}
		}
		deps = append(deps, gridmind.GatewayDeployment{
			Name: name, Client: client, Weight: weight, Priority: i,
		})
	}
	if len(deps) == 0 {
		return nil, errors.New("-gateway: no deployments in spec")
	}
	return gridmind.NewGateway(deps, gridmind.GatewayConfig{
		Name:     "gridmind-server",
		Strategy: gridmind.GatewayStrategy(strategy),
		Health:   gridmind.GatewayHealthConfig{Interval: health},
		Metrics:  met,
	})
}
