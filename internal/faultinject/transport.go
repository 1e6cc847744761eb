package faultinject

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// FlakyTransport is a deterministic http.RoundTripper for exercising
// the resilient client (internal/client): each request consumes the
// next Outcome from a script — drop the connection, answer 503 with a
// Retry-After, hang until the request context expires, or pass through
// to the real transport. When the script is exhausted, requests pass
// through. The consumed sequence is recorded, so a test can assert the
// exact retry trajectory the client took.
//
// Determinism note: with a sequential caller the outcome sequence is
// exactly the script. Concurrent callers consume outcomes in scheduler
// order; tests that assert exact sequences keep one request in flight
// at a time or script symmetric outcomes.

// OutcomeKind classifies one scripted transport behavior.
type OutcomeKind int

const (
	// Pass forwards the request to the inner transport.
	Pass OutcomeKind = iota
	// Drop fails the round trip with a connection error.
	Drop
	// Unavailable answers 503 (with Retry-After when RetryAfter > 0)
	// without touching the inner transport.
	Unavailable
	// Hang blocks until the request's context is done, then returns
	// its error (exercises per-attempt timeouts).
	Hang
	// InternalError answers 500 without touching the inner transport.
	InternalError
)

// String names the outcome kind.
func (k OutcomeKind) String() string {
	switch k {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Unavailable:
		return "503"
	case Hang:
		return "hang"
	case InternalError:
		return "500"
	}
	return fmt.Sprintf("OutcomeKind(%d)", int(k))
}

// Outcome is one scripted transport behavior.
type Outcome struct {
	Kind OutcomeKind
	// RetryAfter, for Unavailable, is the Retry-After header value in
	// seconds (0 omits the header).
	RetryAfter int
}

// ErrDropped is the injected connection failure. What matters to the
// client under test is only that RoundTrip returned an error — all
// transport errors are retryable.
var ErrDropped = errors.New("faultinject: injected connection reset")

// FlakyTransport implements http.RoundTripper per the script above.
type FlakyTransport struct {
	// Inner handles Pass outcomes (default http.DefaultTransport).
	Inner http.RoundTripper

	mu     sync.Mutex
	script []Outcome
	next   int
	log    []OutcomeKind
}

// NewFlakyTransport builds a transport that plays script in order.
func NewFlakyTransport(inner http.RoundTripper, script ...Outcome) *FlakyTransport {
	return &FlakyTransport{Inner: inner, script: script}
}

// Extend appends more outcomes to the script (test phases).
func (t *FlakyTransport) Extend(script ...Outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.script = append(t.script, script...)
}

// Log returns the outcome kinds consumed so far, in order.
func (t *FlakyTransport) Log() []OutcomeKind {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]OutcomeKind, len(t.log))
	copy(out, t.log)
	return out
}

// Requests returns how many round trips have been attempted.
func (t *FlakyTransport) Requests() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.log)
}

func (t *FlakyTransport) take() Outcome {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := Outcome{Kind: Pass}
	if t.next < len(t.script) {
		o = t.script[t.next]
		t.next++
	}
	t.log = append(t.log, o.Kind)
	return o
}

// RoundTrip implements http.RoundTripper.
func (t *FlakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	o := t.take()
	switch o.Kind {
	case Drop:
		drainBody(req)
		return nil, ErrDropped
	case Hang:
		drainBody(req)
		<-req.Context().Done()
		return nil, req.Context().Err()
	case Unavailable:
		drainBody(req)
		resp := syntheticResponse(req, http.StatusServiceUnavailable, "injected unavailable")
		if o.RetryAfter > 0 {
			resp.Header.Set("Retry-After", strconv.Itoa(o.RetryAfter))
		}
		return resp, nil
	case InternalError:
		drainBody(req)
		return syntheticResponse(req, http.StatusInternalServerError, "injected internal error"), nil
	default:
		inner := t.Inner
		if inner == nil {
			inner = http.DefaultTransport
		}
		return inner.RoundTrip(req)
	}
}

// drainBody consumes and closes the request body, as a real transport
// would before the connection died.
func drainBody(req *http.Request) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		_ = req.Body.Close()
	}
}

// syntheticResponse fabricates a minimal HTTP response without a
// network round trip.
func syntheticResponse(req *http.Request, status int, body string) *http.Response {
	return &http.Response{
		StatusCode: status,
		Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    req,
	}
}
