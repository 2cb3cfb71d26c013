package llm

import (
	"errors"
	"fmt"
)

// This file is the backend error taxonomy shared by the HTTP client/server
// pair and the resilient gateway (internal/llm/gateway). Classification
// matters operationally: retryable failures (throttling, server faults,
// transport errors, timeouts) are worth another attempt or another
// deployment, while terminal failures (a bad request, a malformed
// response) will fail identically everywhere, so retrying them only burns
// the caller's deadline.

// StatusError is a backend failure carrying an HTTP-style status code, so
// 4xx-vs-5xx survives the client/server round trip and the gateway can
// classify it without string matching.
type StatusError struct {
	// Code is the HTTP status (429, 503, ...).
	Code int
	// Msg is the backend's error text.
	Msg string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("llm: backend status %d: %s", e.Code, e.Msg)
}

// ErrMalformed marks responses that arrived but violate the protocol: no
// choices, undecodable tool-call arguments, or an unparseable body. The
// request reached a backend, so connectivity is fine — but the payload is
// unusable and a byte-identical retry against the same backend is unlikely
// to decode any better.
var ErrMalformed = errors.New("llm: malformed backend response")

// ErrUnavailable reports that no backend can currently take the request —
// in the gateway, every deployment's circuit breaker is open. Serving
// layers should map it to 503 with a Retry-After hint rather than a bare
// failure: the condition is temporary and the session remains usable.
var ErrUnavailable = errors.New("llm: no backend deployment available")
