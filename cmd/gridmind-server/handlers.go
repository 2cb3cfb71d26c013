package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"gridmind"
	"gridmind/internal/llm"
	"gridmind/internal/obs"
)

// server bundles the HTTP surface: the session manager (which also owns
// the default session behind session-less /ask calls, the single-tenant
// API), the shared artifact engine, the process metrics registry behind
// /metrics, and the simulated chat-completions backend.
type server struct {
	mgr *sessionManager
	eng *gridmind.Engine
	// met is the process-wide obs registry (the engine's); every layer —
	// engine, gateway, tools, agents, session manager — publishes here.
	met *obs.Registry
	sim http.Handler
	// maxBody bounds /ask and /sessions request bodies in bytes.
	maxBody int64
}

// Retry-After hints, in seconds. A full queue drains as soon as the
// current solve finishes; an all-breakers-open outage waits out a breaker
// cooldown.
const (
	retryAfterQueueFull   = 1
	retryAfterUnavailable = 15
)

// writeJSON writes a JSON response with status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr renders errors as {"error": ...} with a proper status instead
// of a bare 500.
func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// errStatus maps session-manager and backend errors onto HTTP statuses.
func errStatus(err error) int {
	switch {
	case errors.Is(err, errSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, errAtCapacity):
		return http.StatusConflict
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, llm.ErrUnavailable):
		// Every gateway deployment's breaker is open: a temporary outage,
		// not a failed conversation — the session stays usable.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// retryAfter returns the Retry-After hint in seconds for a status that
// warrants one, or 0.
func retryAfter(status int) int {
	switch status {
	case http.StatusTooManyRequests:
		return retryAfterQueueFull
	case http.StatusServiceUnavailable:
		return retryAfterUnavailable
	}
	return 0
}

// decodeBody JSON-decodes a size-limited request body, distinguishing
// oversized bodies (413) from malformed ones (400).
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.maxBody))
			return false
		}
		writeErr(w, http.StatusBadRequest, "malformed JSON body")
		return false
	}
	return true
}

// routes assembles the HTTP mux.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ask", s.handleAsk)
	mux.HandleFunc("/sessions", s.handleSessions)
	mux.HandleFunc("/sessions/", s.handleSessionByID)
	mux.HandleFunc("/cases", s.handleCases)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.Handle("/v1/chat/completions", s.sim)
	return mux
}

// handleAsk routes one query: into the named session when session_id is
// given, into the shared default session otherwise (the original
// single-tenant contract).
func (s *server) handleAsk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var in struct {
		Query     string `json:"query"`
		SessionID string `json:"session_id"`
	}
	if !s.decodeBody(w, r, &in) {
		return
	}
	if strings.TrimSpace(in.Query) == "" {
		writeErr(w, http.StatusBadRequest, `body must be {"query": "...", "session_id": "optional"}`)
		return
	}
	ex, err := s.mgr.ask(r.Context(), in.SessionID, in.Query)
	if err != nil {
		status := errStatus(err)
		if ra := retryAfter(status); ra > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ra))
		}
		writeErr(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session_id": in.SessionID,
		"reply":      ex.Reply,
		"success":    ex.Success,
		"turns":      len(ex.Turns),
		"latency_s":  ex.Latency.Seconds(),
		"workflow":   ex.Steps,
	})
}

// handleSessions creates (POST) or lists (GET) sessions.
func (s *server) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var in struct {
			Model string `json:"model"`
		}
		// An empty body is a valid "default model" request.
		if r.ContentLength != 0 && !s.decodeBody(w, r, &in) {
			return
		}
		model := in.Model
		if model == "" {
			model = gridmind.ModelGPTO3
		}
		if err := gridmind.ValidateModel(model); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		sess, err := s.mgr.create(model)
		if err != nil {
			writeErr(w, errStatus(err), err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{
			"session_id": sess.ID,
			"model":      sess.Model,
			"created_at": sess.Created,
		})
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{
			"live":     s.mgr.len(),
			"sessions": s.mgr.list(),
		})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "POST or GET only")
	}
}

// handleSessionByID deletes (DELETE) or touches (POST) one session. A
// POST on a spilled id restores it from disk without routing a query
// through it — the explicit form of the transparent restore /ask does.
func (s *server) handleSessionByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/sessions/")
	if id == "" || strings.Contains(id, "/") {
		writeErr(w, http.StatusNotFound, "unknown resource")
		return
	}
	switch r.Method {
	case http.MethodDelete:
		if !s.mgr.remove(id) {
			writeErr(w, http.StatusNotFound, errSessionNotFound.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodPost:
		ms, err := s.mgr.get(id)
		if err != nil {
			writeErr(w, errStatus(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"session_id": ms.ID,
			"model":      ms.Model,
			"created_at": ms.Created,
		})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "POST or DELETE only")
	}
}

func (s *server) handleCases(w http.ResponseWriter, r *http.Request) {
	rows, err := gridmind.CaseSummaries()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rows)
}

// handleMetrics serves the process metrics registry in Prometheus text
// exposition format: engine artifact hit/miss counters, per-deployment
// gateway counters and breaker state, per-tool invocation counts and
// latency histograms, per-agent interaction metrics, and session
// lifecycle (live gauge, spill/restore counts).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.TextContentType)
	if err := s.met.WritePrometheus(w); err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
	}
}
