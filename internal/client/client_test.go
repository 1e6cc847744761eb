package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"joinopt/internal/faultinject"
	"joinopt/internal/serve"
)

// roundTripperFunc adapts a function to http.RoundTripper (the inner
// transport for Pass outcomes: no network, canned responses).
type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// okInner answers every request 200 with a fixed OptimizeResponse.
func okInner(t *testing.T) http.RoundTripper {
	t.Helper()
	body, err := json.Marshal(&serve.OptimizeResponse{
		Fingerprint: "feedface",
		TotalCost:   42.5,
		Order:       []int{2, 0, 1},
		Explain:     "join(2,0,1)",
	})
	if err != nil {
		t.Fatal(err)
	}
	return roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		if r.Body != nil {
			_, _ = io.Copy(io.Discard, r.Body)
			_ = r.Body.Close()
		}
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     make(http.Header),
			Body:       io.NopCloser(strings.NewReader(string(body))),
			Request:    r,
		}, nil
	})
}

// statusInner answers a fixed status code and body.
func statusInner(code int, body string) http.RoundTripper {
	return roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		if r.Body != nil {
			_, _ = io.Copy(io.Discard, r.Body)
			_ = r.Body.Close()
		}
		return &http.Response{
			StatusCode: code,
			Header:     make(http.Header),
			Body:       io.NopCloser(strings.NewReader(body)),
			Request:    r,
		}, nil
	})
}

// sleepRecorder captures the delays the client asked to wait, without
// actually waiting.
type sleepRecorder struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (s *sleepRecorder) sleep(ctx context.Context, d time.Duration) error {
	s.mu.Lock()
	s.delays = append(s.delays, d)
	s.mu.Unlock()
	return ctx.Err()
}

func (s *sleepRecorder) all() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]time.Duration, len(s.delays))
	copy(out, s.delays)
	return out
}

func newTestClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	if cfg.BaseURL == "" {
		cfg.BaseURL = "http://ljqd.test"
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRetriesThenSucceedsWithDeterministicBackoff(t *testing.T) {
	const seed = 42
	ft := faultinject.NewFlakyTransport(okInner(t),
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Pass},
	)
	rec := &sleepRecorder{}
	c := newTestClient(t, Config{
		Transport:   ft,
		MaxAttempts: 4,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  5 * time.Second,
		JitterSeed:  seed,
		Sleep:       rec.sleep,
	})
	resp, err := c.OptimizeDSL(context.Background(), "R(10) S(20) R.x=S.y 0.1")
	if err != nil {
		t.Fatalf("OptimizeDSL: %v", err)
	}
	if resp.Fingerprint != "feedface" || resp.Explain != "join(2,0,1)" {
		t.Fatalf("unexpected response: %+v", resp)
	}
	if got := ft.Log(); len(got) != 3 {
		t.Fatalf("transport saw %v, want 3 attempts", got)
	}

	// The two recorded backoffs must equal the seeded jitter stream:
	// delay_k uniform in [b/2, b), b = Base<<k.
	rng := rand.New(rand.NewSource(seed))
	want := make([]time.Duration, 2)
	for k := range want {
		b := 100 * time.Millisecond << uint(k)
		want[k] = b/2 + time.Duration(rng.Float64()*float64(b/2))
	}
	got := rec.all()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("backoffs %v, want deterministic %v", got, want)
	}

	// Same seed, same failures → bit-identical schedule on a second
	// client (the reproducibility contract).
	ft2 := faultinject.NewFlakyTransport(okInner(t),
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Pass},
	)
	rec2 := &sleepRecorder{}
	c2 := newTestClient(t, Config{
		Transport: ft2, MaxAttempts: 4, BaseBackoff: 100 * time.Millisecond,
		MaxBackoff: 5 * time.Second, JitterSeed: seed, Sleep: rec2.sleep,
	})
	if _, err := c2.OptimizeDSL(context.Background(), "R(10) S(20) R.x=S.y 0.1"); err != nil {
		t.Fatal(err)
	}
	got2 := rec2.all()
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("same seed produced different schedules: %v vs %v", got, got2)
		}
	}
}

func TestRetryAfterHonored(t *testing.T) {
	// The server says "2 seconds"; the client's own backoff would be
	// ~100ms. The recorded delay must be the server's hint.
	ft := faultinject.NewFlakyTransport(okInner(t),
		faultinject.Outcome{Kind: faultinject.Unavailable, RetryAfter: 2},
		faultinject.Outcome{Kind: faultinject.Pass},
	)
	rec := &sleepRecorder{}
	c := newTestClient(t, Config{
		Transport: ft, MaxAttempts: 3,
		BaseBackoff: 100 * time.Millisecond, Sleep: rec.sleep,
	})
	if _, err := c.OptimizeDSL(context.Background(), "q"); err != nil {
		t.Fatalf("OptimizeDSL: %v", err)
	}
	got := rec.all()
	if len(got) != 1 || got[0] != 2*time.Second {
		t.Fatalf("recorded delays %v, want exactly [2s] (Retry-After wins over backoff)", got)
	}
}

func TestRetryAfterCapped(t *testing.T) {
	ft := faultinject.NewFlakyTransport(okInner(t),
		faultinject.Outcome{Kind: faultinject.Unavailable, RetryAfter: 3600},
		faultinject.Outcome{Kind: faultinject.Pass},
	)
	rec := &sleepRecorder{}
	c := newTestClient(t, Config{
		Transport: ft, MaxAttempts: 2,
		RetryAfterCap: 5 * time.Second, Sleep: rec.sleep,
	})
	if _, err := c.OptimizeDSL(context.Background(), "q"); err != nil {
		t.Fatal(err)
	}
	got := rec.all()
	if len(got) != 1 || got[0] != 5*time.Second {
		t.Fatalf("recorded delays %v, want [5s] (capped)", got)
	}
}

func TestPermanent4xxDoesNotRetry(t *testing.T) {
	c := newTestClient(t, Config{
		Transport: statusInner(http.StatusBadRequest, "parse error at line 1"),
		Sleep:     (&sleepRecorder{}).sleep,
	})
	_, err := c.OptimizeDSL(context.Background(), "not a query")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	// A 4xx is breaker-success: the daemon is alive and judging.
	if st := c.BreakerState(); st != "closed" {
		t.Fatalf("breaker %s after 4xx, want closed", st)
	}
}

func TestExhaustedWrapsLastError(t *testing.T) {
	ft := faultinject.NewFlakyTransport(nil,
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Drop},
	)
	c := newTestClient(t, Config{Transport: ft, MaxAttempts: 3, Sleep: (&sleepRecorder{}).sleep})
	_, err := c.OptimizeDSL(context.Background(), "q")
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if !errors.Is(err, faultinject.ErrDropped) {
		t.Fatalf("err = %v, want to wrap the transport's last error", err)
	}
	if ft.Requests() != 3 {
		t.Fatalf("transport saw %d requests, want exactly MaxAttempts=3", ft.Requests())
	}
}

func Test5xxIsRetryable(t *testing.T) {
	ft := faultinject.NewFlakyTransport(okInner(t),
		faultinject.Outcome{Kind: faultinject.InternalError},
		faultinject.Outcome{Kind: faultinject.Pass},
	)
	c := newTestClient(t, Config{Transport: ft, MaxAttempts: 2, Sleep: (&sleepRecorder{}).sleep})
	if _, err := c.OptimizeDSL(context.Background(), "q"); err != nil {
		t.Fatalf("OptimizeDSL after 500→200: %v", err)
	}
	if got := ft.Log(); len(got) != 2 || got[0] != faultinject.InternalError {
		t.Fatalf("trajectory %v, want [500 pass]", got)
	}
}

func TestPerAttemptTimeoutRetries(t *testing.T) {
	// First attempt hangs; the per-attempt timeout must cut it loose
	// and the retry must succeed — the caller's context stays alive.
	ft := faultinject.NewFlakyTransport(okInner(t),
		faultinject.Outcome{Kind: faultinject.Hang},
		faultinject.Outcome{Kind: faultinject.Pass},
	)
	c := newTestClient(t, Config{
		Transport: ft, MaxAttempts: 2,
		PerAttemptTimeout: 20 * time.Millisecond,
		Sleep:             (&sleepRecorder{}).sleep,
	})
	if _, err := c.OptimizeDSL(context.Background(), "q"); err != nil {
		t.Fatalf("OptimizeDSL after hang→pass: %v", err)
	}
	if got := ft.Log(); len(got) != 2 {
		t.Fatalf("trajectory %v, want hang then pass", got)
	}
}

// fakeClock drives the breaker deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func TestCircuitBreakerTripsProbesAndRecovers(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	ft := faultinject.NewFlakyTransport(okInner(t),
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Drop},
	)
	c := newTestClient(t, Config{
		Transport: ft, MaxAttempts: 1, // one physical attempt per call
		Breaker: BreakerConfig{Threshold: 2, Cooldown: 5 * time.Second},
		Now:     clock.now,
		Sleep:   (&sleepRecorder{}).sleep,
	})
	ctx := context.Background()

	// Two consecutive failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := c.OptimizeDSL(ctx, "q"); !errors.Is(err, ErrExhausted) {
			t.Fatalf("call %d: err = %v, want ErrExhausted", i, err)
		}
	}
	if st := c.BreakerState(); st != "open" {
		t.Fatalf("breaker %s after %d failures, want open", st, 2)
	}

	// While open: fail fast, no transport traffic.
	before := ft.Requests()
	if _, err := c.OptimizeDSL(ctx, "q"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if ft.Requests() != before {
		t.Fatal("open breaker let a request reach the transport")
	}

	// Cooldown elapses; the half-open probe succeeds and closes it.
	clock.advance(5 * time.Second)
	ft.Extend(faultinject.Outcome{Kind: faultinject.Pass})
	if _, err := c.OptimizeDSL(ctx, "q"); err != nil {
		t.Fatalf("probe call: %v", err)
	}
	if st := c.BreakerState(); st != "closed" {
		t.Fatalf("breaker %s after successful probe, want closed", st)
	}

	// Trip it again; this time the probe fails and it reopens.
	ft.Extend(
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Drop}, // the failing probe
	)
	for i := 0; i < 2; i++ {
		if _, err := c.OptimizeDSL(ctx, "q"); !errors.Is(err, ErrExhausted) {
			t.Fatalf("retrip call %d: %v", i, err)
		}
	}
	clock.advance(5 * time.Second)
	if _, err := c.OptimizeDSL(ctx, "q"); !errors.Is(err, ErrExhausted) {
		t.Fatalf("failing probe: err = %v", err)
	}
	if st := c.BreakerState(); st != "open" {
		t.Fatalf("breaker %s after failed probe, want open", st)
	}
	// And it fails fast again without waiting out the new cooldown.
	if _, err := c.OptimizeDSL(ctx, "q"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen after reopen", err)
	}
}

func TestBreakerDisabled(t *testing.T) {
	ft := faultinject.NewFlakyTransport(okInner(t),
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Pass},
	)
	c := newTestClient(t, Config{
		Transport: ft, MaxAttempts: 4,
		Breaker: BreakerConfig{Threshold: -1},
		Sleep:   (&sleepRecorder{}).sleep,
	})
	if _, err := c.OptimizeDSL(context.Background(), "q"); err != nil {
		t.Fatalf("disabled breaker must never fail fast: %v", err)
	}
}

func TestStatusProbeSingleAttempt(t *testing.T) {
	// Probes report the world as-is: a 503 /statusz is an error, not a
	// retry loop.
	ft := faultinject.NewFlakyTransport(nil,
		faultinject.Outcome{Kind: faultinject.Unavailable, RetryAfter: 1},
	)
	c := newTestClient(t, Config{Transport: ft, Sleep: (&sleepRecorder{}).sleep})
	if _, err := c.Status(context.Background()); err == nil {
		t.Fatal("Status over 503 = nil, want error")
	}
	if ft.Requests() != 1 {
		t.Fatalf("probe made %d requests, want 1", ft.Requests())
	}

	body, err := json.Marshal(&serve.StatusResponse{Ready: true, CapacityJoins: 256})
	if err != nil {
		t.Fatal(err)
	}
	c2 := newTestClient(t, Config{Transport: statusInner(http.StatusOK, string(body))})
	st, err := c2.Status(context.Background())
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if !st.Ready || st.CapacityJoins != 256 {
		t.Fatalf("status = %+v", st)
	}
}

func TestResilienceCounters(t *testing.T) {
	ft := faultinject.NewFlakyTransport(okInner(t),
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Pass},
	)
	c := newTestClient(t, Config{Transport: ft, MaxAttempts: 4, Sleep: (&sleepRecorder{}).sleep})
	if _, err := c.OptimizeDSL(context.Background(), "q"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (two drops before the pass)", st.Retries)
	}
	if st.BreakerState != "closed" || st.BreakerTransitions != 0 {
		t.Fatalf("breaker %q after %d transitions, want closed after 0", st.BreakerState, st.BreakerTransitions)
	}
}

func TestBreakerTransitionsCounted(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	b := NewBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Second}, clock.now)
	b.Failure()
	b.Failure() // closed → open
	if st := b.State(); st != "open" {
		t.Fatalf("state %q, want open", st)
	}
	clock.advance(time.Second)
	if !b.Allow() { // open → half-open, probe slot claimed
		t.Fatal("cooled-down breaker refused the probe")
	}
	b.Success() // half-open → closed
	if got := b.Transitions(); got != 3 {
		t.Fatalf("transitions = %d, want 3 (open, half-open, closed)", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused a request")
	}
	b.Success() // closed → closed: not a transition
	if got := b.Transitions(); got != 3 {
		t.Fatalf("transitions = %d after steady-state success, want still 3", got)
	}
}

func TestCallerContextCancelStopsRetrying(t *testing.T) {
	ft := faultinject.NewFlakyTransport(nil,
		faultinject.Outcome{Kind: faultinject.Drop},
		faultinject.Outcome{Kind: faultinject.Drop},
	)
	ctx, cancel := context.WithCancel(context.Background())
	c := newTestClient(t, Config{
		Transport: ft, MaxAttempts: 10,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // the caller gives up while the client backs off
			return ctx.Err()
		},
	})
	_, err := c.OptimizeDSL(ctx, "q")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ft.Requests() != 1 {
		t.Fatalf("client kept retrying after cancel: %d requests", ft.Requests())
	}
}

// TestCallerCtxDeathReleasesHalfOpenProbeSlot is the regression test
// for the slotresolve finding in call(): when the half-open probe's
// caller hung up mid-attempt (non-retryable, but not an APIError), the
// probe slot claimed by allow() was dropped on the floor — parking the
// breaker half-open and failing every future call fast with
// ErrCircuitOpen. The fix releases the slot with cancelSlot().
func TestCallerCtxDeathReleasesHalfOpenProbeSlot(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	ok := okInner(t)
	var mu sync.Mutex
	var cancelCaller context.CancelFunc // armed for the probe call
	failing := true
	rt := roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		cancel := cancelCaller
		cancelCaller = nil
		fail := failing
		mu.Unlock()
		if cancel != nil {
			// The caller gives up while this attempt is on the wire:
			// the transport error is then classified non-retryable
			// because the *caller's* context died, not the attempt's.
			cancel()
			return nil, errors.New("connection torn down")
		}
		if fail {
			return nil, errors.New("connection refused")
		}
		return ok.RoundTrip(r)
	})
	c := newTestClient(t, Config{
		Transport: rt, MaxAttempts: 1,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: 5 * time.Second},
		Now:     clock.now,
		Sleep:   (&sleepRecorder{}).sleep,
	})

	// Trip the breaker open.
	for i := 0; i < 2; i++ {
		if _, err := c.OptimizeDSL(context.Background(), "q"); !errors.Is(err, ErrExhausted) {
			t.Fatalf("call %d: err = %v, want ErrExhausted", i, err)
		}
	}
	if st := c.BreakerState(); st != "open" {
		t.Fatalf("breaker %s, want open", st)
	}

	// Cooldown elapses; the next call is granted the single half-open
	// probe slot — and its caller hangs up mid-attempt. No verdict on
	// the daemon, but the slot must be released.
	clock.advance(5 * time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mu.Lock()
	cancelCaller = cancel
	mu.Unlock()
	if _, err := c.OptimizeDSL(ctx, "q"); !errors.Is(err, context.Canceled) {
		t.Fatalf("probe call: err = %v, want context.Canceled", err)
	}

	// The next caller must be able to probe. Before the fix the leaked
	// slot kept probeInFlight set forever and this call failed fast
	// with ErrCircuitOpen.
	mu.Lock()
	failing = false
	mu.Unlock()
	if _, err := c.OptimizeDSL(context.Background(), "q"); err != nil {
		t.Fatalf("post-cancel probe: %v (a leaked probe slot parks the breaker half-open)", err)
	}
	if st := c.BreakerState(); st != "closed" {
		t.Fatalf("breaker %s after successful probe, want closed", st)
	}
}

// TestShedDefaultStillRetries: shed answers (429 here) are retried
// with backoff, honoring Retry-After.
func TestShedDefaultStillRetries(t *testing.T) {
	calls := 0
	inner := roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		if r.Body != nil {
			_, _ = io.Copy(io.Discard, r.Body)
			_ = r.Body.Close()
		}
		calls++
		if calls < 3 {
			h := make(http.Header)
			h.Set("Retry-After", "7")
			return &http.Response{
				StatusCode: http.StatusTooManyRequests,
				Header:     h,
				Body:       io.NopCloser(strings.NewReader("busy")),
				Request:    r,
			}, nil
		}
		return okInner(t).RoundTrip(r)
	})
	rec := &sleepRecorder{}
	c := newTestClient(t, Config{
		Transport:   inner,
		MaxAttempts: 4,
		Sleep:       rec.sleep,
	})
	resp, err := c.OptimizeDSL(context.Background(), "R(10) S(20) R.x=S.y 0.1")
	if err != nil || resp.Explain == "" {
		t.Fatalf("err=%v resp=%+v", err, resp)
	}
	delays := rec.all()
	if len(delays) != 2 {
		t.Fatalf("delays %v, want 2 Retry-After waits", delays)
	}
	for _, d := range delays {
		if d != 7*time.Second {
			t.Fatalf("delay %v, want the 7s Retry-After hint", d)
		}
	}
}

// TestBreakerTripsAndRecovers drives the exported standalone Breaker
// (the one internal/cluster's Rebalancer keeps per push destination)
// through its whole cycle: consecutive failures open it, the cooldown
// admits exactly one probe, and the probe's success closes it again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	b := NewBreaker(BreakerConfig{Threshold: 2, Cooldown: 5 * time.Second}, clock.now)
	if !b.Allow() {
		t.Fatal("fresh breaker refused")
	}
	b.Success()
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("failure %d: closed breaker refused", i)
		}
		b.Failure()
	}
	if b.Allow() || b.State() != "open" {
		t.Fatalf("breaker %s after two failures admitted a request", b.State())
	}
	clock.advance(5 * time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("second request admitted while the probe is in flight")
	}
	b.Success()
	if b.State() != "closed" || b.Transitions() != 3 {
		t.Fatalf("breaker %s after %d transitions, want closed after 3", b.State(), b.Transitions())
	}
}

// TestBreakerCancelReleasesProbeSlot: abandoning a claimed half-open
// slot with Cancel frees the probe for the next request instead of
// parking the breaker half-open forever, and records no verdict.
func TestBreakerCancelReleasesProbeSlot(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second}, clock.now)
	if !b.Allow() {
		t.Fatal("fresh breaker refused")
	}
	b.Failure() // opens (threshold 1)
	clock.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Cancel() // abandoned request: no verdict
	if b.State() != "half-open" {
		t.Fatalf("cancel changed state to %s", b.State())
	}
	if !b.Allow() {
		t.Fatal("released probe slot not reusable")
	}
	b.Success()
	if b.State() != "closed" {
		t.Fatalf("state %s after probe success", b.State())
	}
}
