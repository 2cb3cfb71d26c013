package llm

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// errClient always fails with a fixed error.
type errClient struct{ err error }

func (c *errClient) Model() string { return "err" }
func (c *errClient) Complete(context.Context, *Request) (*Response, error) {
	return nil, c.err
}

// TestHTTPStatusSurvivesRoundTrip: a backend-side StatusError keeps its
// code across the Handler/HTTPClient pair, so a gateway in front of the
// client can tell a terminal 4xx from a retryable 5xx.
func TestHTTPStatusSurvivesRoundTrip(t *testing.T) {
	for _, code := range []int{400, 429, 503} {
		srv := httptest.NewServer(Handler(&errClient{err: &StatusError{Code: code, Msg: "backend says no"}}))
		c := &HTTPClient{Endpoint: srv.URL, ModelName: "m"}
		_, err := c.Complete(context.Background(), userReq(nil, "hello"))
		srv.Close()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != code {
			t.Fatalf("status %d lost across the round trip (%v)", code, err)
		}
		if err == nil || !strings.Contains(err.Error(), "backend says no") {
			t.Fatalf("backend message lost: %v", err)
		}
	}
}

// TestHandlerRejectsBadToolArguments: undecodable tool-call arguments in
// a request are a 400, not a silently nil-argument tool call.
func TestHandlerRejectsBadToolArguments(t *testing.T) {
	p := mustProfile(t, ModelGPT5Mini)
	srv := httptest.NewServer(Handler(NewSim(p)))
	defer srv.Close()
	body := `{"model":"m","messages":[
		{"role":"user","content":"solve case30"},
		{"role":"assistant","tool_calls":[{"id":"c1","type":"function",
			"function":{"name":"solve_acopf_case","arguments":"{not json"}}]}
	]}`
	res, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad arguments got status %d, want 400", res.StatusCode)
	}
}

// TestClientSurfacesMalformedResponses: a 200 whose payload violates the
// protocol (undecodable args, no choices, garbage JSON) is ErrMalformed —
// terminal for a gateway, never a nil-args tool call.
func TestClientSurfacesMalformedResponses(t *testing.T) {
	cases := map[string]string{
		"bad tool args": `{"choices":[{"message":{"role":"assistant",
			"tool_calls":[{"id":"c1","type":"function","function":{"name":"t","arguments":"{oops"}}]}}]}`,
		"no choices":   `{"choices":[]}`,
		"garbage body": `{"choices": nope}`,
	}
	for name, payload := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(payload))
		}))
		c := &HTTPClient{Endpoint: srv.URL, ModelName: "m"}
		_, err := c.Complete(context.Background(), userReq(nil, "hello"))
		srv.Close()
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// TestEmptyToolArgumentsStayLegal: ""/"null" arguments mean "no args" —
// the decode-error fix must not reject them.
func TestEmptyToolArgumentsStayLegal(t *testing.T) {
	for _, raw := range []string{"", "null", "{}"} {
		args, err := decodeArgs(raw)
		if err != nil {
			t.Fatalf("decodeArgs(%q) = %v", raw, err)
		}
		if raw == "{}" && args == nil {
			t.Fatal("decodeArgs({}) lost the empty object")
		}
	}
}
