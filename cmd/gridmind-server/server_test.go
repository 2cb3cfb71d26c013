package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridmind"
	"gridmind/internal/llm"
	"gridmind/internal/llm/gateway"
)

// newTestServer assembles a server exactly like main does, with a small
// body cap so the 413 path is testable.
func newTestServer(t *testing.T, maxSessions int) (*server, *httptest.Server) {
	return newTestServerQueue(t, maxSessions, 8, nil)
}

// newTestServerQueue is newTestServer with an explicit per-session queue
// cap and an optional gateway builder; the builder receives the process
// metrics registry so gateway instruments land on the /metrics surface,
// exactly as main wires it.
func newTestServerQueue(t *testing.T, maxSessions, maxQueue int, buildGW func(*gridmind.MetricsRegistry) *gridmind.Gateway) (*server, *httptest.Server) {
	return newTestServerFull(t, maxSessions, maxQueue, "", buildGW)
}

// newTestServerFull adds the spill directory knob.
func newTestServerFull(t *testing.T, maxSessions, maxQueue int, spillDir string, buildGW func(*gridmind.MetricsRegistry) *gridmind.Gateway) (*server, *httptest.Server) {
	t.Helper()
	eng := gridmind.NewEngine()
	met := eng.Metrics()
	var gw *gridmind.Gateway
	if buildGW != nil {
		gw = buildGW(met)
	}
	factory := func(model string) *gridmind.GridMind {
		if gw != nil {
			return gridmind.New(gridmind.Options{Model: model, Client: gw, Engine: eng})
		}
		return gridmind.New(gridmind.Options{Model: model, Engine: eng})
	}
	mgr := newSessionManager(factory, gridmind.ModelGPTO3, time.Hour, maxSessions, maxQueue, spillDir, met)
	t.Cleanup(mgr.close)
	profile, _ := llm.ProfileByName(gridmind.ModelGPTO3)
	s := &server{
		mgr:     mgr,
		eng:     eng,
		met:     met,
		sim:     llm.Handler(llm.NewSim(profile)),
		maxBody: 4096,
	}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestCasesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 8)
	resp, err := http.Get(ts.URL + "/cases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/cases status %d", resp.StatusCode)
	}
	var rows []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("cases rows = %d, want 5", len(rows))
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, 8)

	// Create.
	resp, out := postJSON(t, ts.URL+"/sessions", map[string]any{"model": gridmind.ModelGPT5Mini})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %v", resp.StatusCode, out)
	}
	id, _ := out["session_id"].(string)
	if id == "" {
		t.Fatalf("no session_id in %v", out)
	}

	// List shows it.
	lresp, err := http.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Live     int           `json:"live"`
		Sessions []sessionInfo `json:"sessions"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.Live != 1 || len(listing.Sessions) != 1 || listing.Sessions[0].ID != id {
		t.Fatalf("listing %+v", listing)
	}

	// Ask into it.
	aresp, aout := postJSON(t, ts.URL+"/ask", map[string]any{"query": "Solve IEEE 14", "session_id": id})
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("ask status %d: %v", aresp.StatusCode, aout)
	}
	if ok, _ := aout["success"].(bool); !ok {
		t.Fatalf("ask failed: %v", aout)
	}

	// Delete, then the id 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	aresp2, aout2 := postJSON(t, ts.URL+"/ask", map[string]any{"query": "Solve IEEE 14", "session_id": id})
	if aresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("ask on deleted session: status %d, body %v", aresp2.StatusCode, aout2)
	}
	if msg, _ := aout2["error"].(string); msg == "" {
		t.Fatal("error response must be JSON with an error field")
	}
}

func TestSessionErrors(t *testing.T) {
	_, ts := newTestServer(t, 1)

	// Bad model → 400.
	resp, _ := postJSON(t, ts.URL+"/sessions", map[string]any{"model": "gpt-nonexistent"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad model status %d", resp.StatusCode)
	}

	// Capacity → 409.
	if resp, _ := postJSON(t, ts.URL+"/sessions", map[string]any{}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first create status %d", resp.StatusCode)
	}
	resp, out := postJSON(t, ts.URL+"/sessions", map[string]any{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("at-capacity create: status %d, body %v", resp.StatusCode, out)
	}
}

func TestAskValidation(t *testing.T) {
	_, ts := newTestServer(t, 8)

	// Default session (no session_id) keeps the single-tenant contract.
	resp, out := postJSON(t, ts.URL+"/ask", map[string]any{"query": "What is the current network status?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default-session ask status %d: %v", resp.StatusCode, out)
	}

	// Empty query → 400.
	if resp, _ := postJSON(t, ts.URL+"/ask", map[string]any{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query status %d", resp.StatusCode)
	}

	// Malformed JSON → 400.
	mresp, err := http.Post(ts.URL+"/ask", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d", mresp.StatusCode)
	}

	// Oversized body → 413.
	big := map[string]any{"query": strings.Repeat("x", 8192)}
	if resp, _ := postJSON(t, ts.URL+"/ask", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d", resp.StatusCode)
	}

	// Wrong method → 405.
	gresp, err := http.Get(ts.URL + "/ask")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ask status %d", gresp.StatusCode)
	}
}

// fetchMetrics GETs a /metrics variant and returns status, content type
// and body.
func fetchMetrics(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), buf.String()
}

// TestMetricsPrometheus: /metrics serves the process registry in
// Prometheus text format — session gauge, engine artifact counters with
// result labels, and the per-tool latency histograms the coordinator
// registers — with the exposition content type.
func TestMetricsPrometheus(t *testing.T) {
	_, ts := newTestServer(t, 8)
	if resp, _ := postJSON(t, ts.URL+"/sessions", map[string]any{}); resp.StatusCode != http.StatusCreated {
		t.Fatal("create failed")
	}
	if resp, _ := postJSON(t, ts.URL+"/ask", map[string]any{"query": "Solve IEEE 14"}); resp.StatusCode != http.StatusOK {
		t.Fatal("ask failed")
	}
	status, ct, body := fetchMetrics(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q, want Prometheus text exposition", ct)
	}
	for _, want := range []string{
		"# TYPE gridmind_sessions_live gauge",
		"gridmind_sessions_live 1",
		"# TYPE gridmind_engine_ptdf_builds_total counter",
		`gridmind_engine_pristine_lookups_total{result="miss"} 1`,
		`gridmind_engine_opf_context_checkouts_total{result=`,
		`gridmind_opf_kkt_factorizations_total{kind="refactor"}`,
		`gridmind_engine_base_pf_total{result=`,
		"# TYPE gridmind_tool_latency_seconds histogram",
		"gridmind_tool_latency_seconds_bucket{",
		`gridmind_tool_invocations_total{tool="solve_acopf_case"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestChatCompletionsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 8)
	body := `{"model":"gpt-o3","messages":[{"role":"user","content":"hello"}]}`
	resp, err := http.Post(ts.URL+"/v1/chat/completions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chat completions status %d", resp.StatusCode)
	}
}

func TestIdleExpiry(t *testing.T) {
	s, _ := newTestServer(t, 8)
	ms, err := s.mgr.create(gridmind.ModelGPTO3)
	if err != nil {
		t.Fatal(err)
	}
	// Fast-forward the manager's clock past the TTL and sweep.
	s.mgr.mu.Lock()
	s.mgr.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	s.mgr.mu.Unlock()
	if n := s.mgr.expireIdle(); n != 1 {
		t.Fatalf("expired %d sessions, want 1", n)
	}
	if _, err := s.mgr.get(ms.ID); err == nil {
		t.Fatal("expired session still resolvable")
	}
}

// TestIdleExpirySkipsBusySessions: a session with an in-flight ask never
// expires, no matter how long the solve runs.
func TestIdleExpirySkipsBusySessions(t *testing.T) {
	s, _ := newTestServer(t, 8)
	ms, err := s.mgr.create(gridmind.ModelGPTO3)
	if err != nil {
		t.Fatal(err)
	}
	s.mgr.mu.Lock()
	ms.busy = 1
	s.mgr.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	s.mgr.mu.Unlock()
	if n := s.mgr.expireIdle(); n != 0 {
		t.Fatalf("expired %d busy sessions, want 0", n)
	}
	s.mgr.mu.Lock()
	ms.busy = 0
	s.mgr.mu.Unlock()
	if n := s.mgr.expireIdle(); n != 1 {
		t.Fatalf("idle session survived: expired %d, want 1", n)
	}
}

// TestConcurrentSessionsOneCase is the multi-tenant acceptance hammer:
// K distinct sessions ask about the same case concurrently through one
// engine. Run under -race in CI, it pins the engine + session-manager
// concurrency contract; the engine counters prove the case compiled once.
func TestConcurrentSessionsOneCase(t *testing.T) {
	s, ts := newTestServer(t, 16)
	const K = 8
	ids := make([]string, K)
	for i := range ids {
		resp, out := postJSON(t, ts.URL+"/sessions", map[string]any{})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, resp.StatusCode)
		}
		ids[i] = out["session_id"].(string)
	}
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			resp, out := postJSON(t, ts.URL+"/ask", map[string]any{"query": "Solve IEEE 14", "session_id": id})
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("session %s: status %d body %v", id, resp.StatusCode, out)
				return
			}
			if ok, _ := out["success"].(bool); !ok {
				errs[i] = fmt.Errorf("session %s: ask unsuccessful: %v", id, out)
			}
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.eng.Stats()
	if st.PristineMisses != 1 {
		t.Fatalf("case14 loaded %d times across %d sessions, want 1", st.PristineMisses, K)
	}
	if st.YbusBuilds > 1 || st.TopoBuilds > 1 {
		t.Fatalf("structural artifacts rebuilt: %+v", st)
	}
	if st.OPFCreates+st.OPFReuses < K {
		t.Fatalf("KKT pool under-used: creates=%d reuses=%d across %d asks", st.OPFCreates, st.OPFReuses, K)
	}
}

// waitFor polls cond until it holds or the test deadline-ish budget runs
// out; the conditions it guards are local state flips, not wall-clock work.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestHotSessionPileupSheds429: with a per-session queue cap of 1, an ask
// parked behind a slow solve fills the queue and the next ask into the
// same session is shed with 429 + Retry-After instead of joining an
// unbounded goroutine line.
func TestHotSessionPileupSheds429(t *testing.T) {
	s, ts := newTestServerQueue(t, 8, 1, nil)
	resp, out := postJSON(t, ts.URL+"/sessions", map[string]any{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	id := out["session_id"].(string)
	ms, err := s.mgr.get(id)
	if err != nil {
		t.Fatal(err)
	}

	// Hold the session's ask lock so request #1 parks in-flight (busy=1).
	ms.mu.Lock()
	unlocked := false
	defer func() {
		if !unlocked {
			ms.mu.Unlock()
		}
	}()
	firstStatus := make(chan int, 1)
	go func() {
		raw, _ := json.Marshal(map[string]any{"query": "Solve IEEE 14", "session_id": id})
		resp, err := http.Post(ts.URL+"/ask", "application/json", bytes.NewReader(raw))
		if err != nil {
			firstStatus <- -1
			return
		}
		resp.Body.Close()
		firstStatus <- resp.StatusCode
	}()
	waitFor(t, func() bool {
		s.mgr.mu.Lock()
		defer s.mgr.mu.Unlock()
		return ms.busy == 1
	})

	// Queue full: the pileup request bounces immediately with a hint.
	resp2, out2 := postJSON(t, ts.URL+"/ask", map[string]any{"query": "Solve IEEE 14", "session_id": id})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("pileup ask: status %d body %v, want 429", resp2.StatusCode, out2)
	}
	if ra := resp2.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("pileup ask Retry-After = %q, want \"1\"", ra)
	}

	// Release the lock; the parked ask completes normally.
	unlocked = true
	ms.mu.Unlock()
	if st := <-firstStatus; st != http.StatusOK {
		t.Fatalf("parked ask finished with status %d, want 200", st)
	}
}

// TestDefaultSessionQueueCap: the session-less /ask path is admitted by
// the manager like any session, so it enforces the same in-flight bound.
func TestDefaultSessionQueueCap(t *testing.T) {
	s, ts := newTestServerQueue(t, 8, 1, nil)
	def := s.mgr.def

	def.mu.Lock()
	unlocked := false
	defer func() {
		if !unlocked {
			def.mu.Unlock()
		}
	}()
	firstStatus := make(chan int, 1)
	go func() {
		raw, _ := json.Marshal(map[string]any{"query": "What is the current network status?"})
		resp, err := http.Post(ts.URL+"/ask", "application/json", bytes.NewReader(raw))
		if err != nil {
			firstStatus <- -1
			return
		}
		resp.Body.Close()
		firstStatus <- resp.StatusCode
	}()
	waitFor(t, func() bool {
		s.mgr.mu.Lock()
		defer s.mgr.mu.Unlock()
		return def.busy == 1
	})

	resp, _ := postJSON(t, ts.URL+"/ask", map[string]any{"query": "What is the current network status?"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("default-session pileup: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}

	unlocked = true
	def.mu.Unlock()
	if st := <-firstStatus; st != http.StatusOK {
		t.Fatalf("parked default ask finished with status %d, want 200", st)
	}
}

// outageBackend forwards to the sim until down is set, then answers 503.
type outageBackend struct {
	inner llm.Client
	down  atomic.Bool
}

func (o *outageBackend) Model() string { return o.inner.Model() }

func (o *outageBackend) Complete(ctx context.Context, req *llm.Request) (*llm.Response, error) {
	if o.down.Load() {
		return nil, &llm.StatusError{Code: http.StatusServiceUnavailable, Msg: "deployment offline"}
	}
	return o.inner.Complete(ctx, req)
}

// TestGatewayOutageReturns503AndRecovers is the serving-degradation
// acceptance path: every gateway deployment's breaker open → /ask answers
// 503 + Retry-After; after the backend heals and the breaker cools, the
// SAME session serves again, and /metrics carries the gateway gauges.
func TestGatewayOutageReturns503AndRecovers(t *testing.T) {
	profile, _ := llm.ProfileByName(gridmind.ModelGPTO3)
	backend := &outageBackend{inner: llm.NewSim(profile)}
	backend.down.Store(true)

	var clkMu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	_, ts := newTestServerQueue(t, 8, 8, func(met *gridmind.MetricsRegistry) *gridmind.Gateway {
		gw, err := gridmind.NewGateway(
			[]gridmind.GatewayDeployment{{Name: "only", Client: backend}},
			gridmind.GatewayConfig{
				Breaker: gateway.BreakerConfig{
					Window: 4, MinSamples: 1, FailureRatio: 0.5,
					OpenTimeout: 15 * time.Second, HalfOpenSuccesses: 1,
				},
				Retry: gateway.RetryConfig{
					MaxAttempts: 2, BaseBackoff: time.Millisecond,
					MaxBackoff: 2 * time.Millisecond, AttemptTimeout: -1,
				},
				Now:     func() time.Time { clkMu.Lock(); defer clkMu.Unlock(); return now },
				Metrics: met,
			})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(gw.Close)
		return gw
	})

	// Outage: the first failure trips the breaker (MinSamples 1), the
	// retry round finds every deployment open → ErrUnavailable → 503.
	resp, out := postJSON(t, ts.URL+"/ask", map[string]any{"query": "Solve IEEE 14"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("outage ask: status %d body %v, want 503", resp.StatusCode, out)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "15" {
		t.Fatalf("outage Retry-After = %q, want \"15\"", ra)
	}

	// Heal the backend and cool the breaker; the half-open probe succeeds
	// and the same (default) session completes the solve it was asked for.
	backend.down.Store(false)
	clkMu.Lock()
	now = now.Add(16 * time.Second)
	clkMu.Unlock()
	resp2, out2 := postJSON(t, ts.URL+"/ask", map[string]any{"query": "Solve IEEE 14"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("recovered ask: status %d body %v, want 200", resp2.StatusCode, out2)
	}
	if ok, _ := out2["success"].(bool); !ok {
		t.Fatalf("recovered ask unsuccessful: %v", out2)
	}

	// The gateway's instruments ride the Prometheus /metrics surface:
	// request/retry counters and the per-deployment breaker-state gauge
	// (0 = closed again after recovery).
	_, _, body := fetchMetrics(t, ts.URL+"/metrics")
	for _, want := range []string{
		`gridmind_gateway_requests_total{gateway="gateway"}`,
		`gridmind_gateway_retries_total{gateway="gateway"}`,
		`gridmind_gateway_breaker_state{deployment="only",gateway="gateway"} 0`,
		`gridmind_gateway_deployment_attempts_total{deployment="only",gateway="gateway"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestSessionSpillRestore is the spill-to-disk acceptance path over
// httptest: a session accumulates state (a solve plus one modification),
// idle-expires into the spill directory, and the next ask on the same id
// transparently restores it — the reply still knows about the
// modification, the spill file is consumed, and the lifecycle counters
// land on /metrics.
func TestSessionSpillRestore(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServerFull(t, 8, 8, dir, nil)

	resp, out := postJSON(t, ts.URL+"/sessions", map[string]any{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	id := out["session_id"].(string)
	for _, q := range []string{"Solve IEEE 14", "Increase the load at bus 9 to 45 MW"} {
		resp, aout := postJSON(t, ts.URL+"/ask", map[string]any{"query": q, "session_id": id})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ask %q status %d: %v", q, resp.StatusCode, aout)
		}
	}

	// Fast-forward past the TTL: the sweep spills instead of dropping.
	var offset atomic.Int64
	offset.Store(int64(2 * time.Hour))
	s.mgr.mu.Lock()
	s.mgr.now = func() time.Time { return time.Now().Add(time.Duration(offset.Load())) }
	s.mgr.mu.Unlock()
	if n := s.mgr.expireIdle(); n != 1 {
		t.Fatalf("expired %d sessions, want 1", n)
	}
	if s.mgr.len() != 0 {
		t.Fatal("spilled session still in the live table")
	}
	spillFile := filepath.Join(dir, id+".json")
	if _, err := os.Stat(spillFile); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}

	// Same id, next ask: transparent restore with the diff intact.
	aresp, aout := postJSON(t, ts.URL+"/ask", map[string]any{"query": "What is the current network status?", "session_id": id})
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("post-restore ask status %d: %v", aresp.StatusCode, aout)
	}
	reply, _ := aout["reply"].(string)
	if !strings.Contains(reply, "1 modification") {
		t.Fatalf("restored session lost its diff: %q", reply)
	}
	if _, err := os.Stat(spillFile); !os.IsNotExist(err) {
		t.Fatalf("spill file not consumed by restore: %v", err)
	}
	ms, err := s.mgr.get(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.gm.Session().Diffs()) != 1 {
		t.Fatalf("restored diffs %d, want 1", len(ms.gm.Session().Diffs()))
	}

	_, _, body := fetchMetrics(t, ts.URL+"/metrics")
	for _, want := range []string{
		"gridmind_sessions_spilled_total 1",
		"gridmind_sessions_restored_total 1",
		"gridmind_sessions_expired_total 1",
		"gridmind_sessions_restore_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// DELETE on a spilled id removes the file too. The restore refreshed
	// the idle clock, so push the fake clock past another TTL first.
	offset.Store(int64(5 * time.Hour))
	if n := s.mgr.expireIdle(); n != 1 {
		t.Fatalf("re-expire count %d, want 1", n)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete spilled session status %d", dresp.StatusCode)
	}
	if _, err := os.Stat(spillFile); !os.IsNotExist(err) {
		t.Fatal("delete left the spill file behind")
	}
	if resp, _ := postJSON(t, ts.URL+"/ask", map[string]any{"query": "Solve IEEE 14", "session_id": id}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ask on deleted spilled session: status %d, want 404", resp.StatusCode)
	}
}

// TestSessionTouchRestores: POST /sessions/{id} is the explicit restore
// surface — it revives a spilled session without routing a query through
// it, and 404s on ids that exist nowhere.
func TestSessionTouchRestores(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServerFull(t, 8, 8, dir, nil)
	resp, out := postJSON(t, ts.URL+"/sessions", map[string]any{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	id := out["session_id"].(string)

	s.mgr.mu.Lock()
	s.mgr.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	s.mgr.mu.Unlock()
	if n := s.mgr.expireIdle(); n != 1 {
		t.Fatalf("expired %d sessions, want 1", n)
	}

	tresp, tout := postJSON(t, ts.URL+"/sessions/"+id, map[string]any{})
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("touch status %d: %v", tresp.StatusCode, tout)
	}
	if got, _ := tout["session_id"].(string); got != id {
		t.Fatalf("touch returned id %q, want %q", got, id)
	}
	if s.mgr.len() != 1 {
		t.Fatal("touched session not back in the live table")
	}
	if resp, _ := postJSON(t, ts.URL+"/sessions/sess-unknown", map[string]any{}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("touch on unknown id: status %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentScrapeSpillAsk is the observability/spill race hammer,
// run under -race in CI: 8 sessions ask repeatedly while a fake-clock
// janitor keeps spilling every idle session and a scraper hammers
// WritePrometheus. Asks must never 404 — restore-on-touch makes spilling
// invisible — no acknowledged modification may be lost to a spill that
// raced the ask, and the scrape must stay internally consistent.
func TestConcurrentScrapeSpillAsk(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServerFull(t, 16, 8, dir, nil)

	const K = 8
	ids := make([]string, K)
	for i := range ids {
		resp, out := postJSON(t, ts.URL+"/sessions", map[string]any{})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, resp.StatusCode)
		}
		ids[i] = out["session_id"].(string)
	}

	// The manager clock jumps 2 TTLs forward on every sweep, so any
	// session idle since the previous sweep expires again — repeated
	// spill/restore cycles, not just one.
	var offset atomic.Int64
	s.mgr.mu.Lock()
	s.mgr.now = func() time.Time { return time.Now().Add(time.Duration(offset.Load())) }
	s.mgr.mu.Unlock()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // janitor hammer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			offset.Add(int64(2 * time.Hour))
			s.mgr.expireIdle()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // scraper hammer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Each asker solves case14, then modifies its own session; mods counts
	// the modifying asks that were acknowledged with a 200.
	errs := make([]error, K)
	mods := make([]int, K)
	var askers sync.WaitGroup
	for i, id := range ids {
		askers.Add(1)
		go func(i int, id string) {
			defer askers.Done()
			queries := []string{"Solve IEEE 14"}
			for k := 1; k <= 3; k++ {
				queries = append(queries, fmt.Sprintf("Increase the load at bus 9 to %d MW", 30+k))
			}
			for n, q := range queries {
				resp, out := postJSON(t, ts.URL+"/ask", map[string]any{"query": q, "session_id": id})
				if resp.StatusCode != http.StatusOK {
					errs[i] = fmt.Errorf("session %s ask %d: status %d body %v", id, n, resp.StatusCode, out)
					return
				}
				if n > 0 {
					mods[i]++
				}
			}
		}(i, id)
	}
	askers.Wait()
	close(stop)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// No lost updates: an ask that ran on a session the janitor had already
	// spilled would leave its diff on an orphan. get restores a spilled one.
	for i, id := range ids {
		ms, err := s.mgr.get(id)
		if err != nil {
			t.Fatalf("session %s after the run: %v", id, err)
		}
		if got := len(ms.gm.Session().Diffs()); got != mods[i] {
			t.Fatalf("session %s holds %d diffs, want %d (lost update)", id, got, mods[i])
		}
	}

	// The final scrape must hold the histogram invariant even after all
	// that churn: +Inf bucket == observation count.
	_, _, body := fetchMetrics(t, ts.URL+"/metrics")
	if !strings.Contains(body, "gridmind_sessions_spilled_total") {
		t.Fatalf("no spill counters on /metrics:\n%s", body)
	}
}

// TestDeleteRacesRestore: a DELETE racing an explicit restore (POST
// /sessions/{id}) of a spilled session leaves the id in exactly one place
// or in none, and a DELETE answered 204 is final — the restore cannot
// bring the session back, and no spill file survives it.
func TestDeleteRacesRestore(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServerFull(t, 8, 8, dir, nil)
	var offset atomic.Int64
	s.mgr.mu.Lock()
	s.mgr.now = func() time.Time { return time.Now().Add(time.Duration(offset.Load())) }
	s.mgr.mu.Unlock()

	for iter := 0; iter < 25; iter++ {
		ms, err := s.mgr.create(gridmind.ModelGPTO3)
		if err != nil {
			t.Fatal(err)
		}
		id, spillFile := ms.ID, filepath.Join(dir, ms.ID+".json")
		offset.Add(int64(2 * time.Hour))
		if n := s.mgr.expireIdle(); n != 1 {
			t.Fatalf("iter %d: expired %d sessions, want 1", iter, n)
		}

		var wg sync.WaitGroup
		var delStatus int
		wg.Add(2)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			resp.Body.Close()
			delStatus = resp.StatusCode
		}()
		go func() {
			defer wg.Done()
			if resp, err := http.Post(ts.URL+"/sessions/"+id, "application/json", strings.NewReader("{}")); err == nil {
				resp.Body.Close()
			}
		}()
		wg.Wait()

		s.mgr.mu.Lock()
		_, live := s.mgr.sessions[id]
		_, statErr := os.Stat(spillFile)
		s.mgr.mu.Unlock()
		if spilled := statErr == nil; live && spilled {
			t.Fatalf("iter %d: session %s is both live and spilled", iter, id)
		}
		if delStatus != http.StatusNoContent {
			s.mgr.remove(id)
			continue
		}
		if resp, out := postJSON(t, ts.URL+"/ask", map[string]any{"query": "What is the current network status?", "session_id": id}); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("iter %d: ask after a 204 DELETE: status %d body %v, want 404", iter, resp.StatusCode, out)
		}
		if _, err := os.Stat(spillFile); !os.IsNotExist(err) {
			t.Fatalf("iter %d: spill file survived a 204 DELETE: %v", iter, err)
		}
	}
}
