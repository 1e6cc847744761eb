package cluster

import (
	"context"
	"sort"
	"sync"
	"time"

	"joinopt/internal/client"
)

// HealthConfig tunes the peer-health view.
type HealthConfig struct {
	// Breaker tunes each peer's circuit breaker (client.BreakerConfig
	// defaults: 5 consecutive failures open it, 5s cooldown).
	Breaker client.BreakerConfig
	// Now is the breakers' clock (nil = time.Now; tests inject a fake
	// clock to drive cooldowns deterministically).
	Now func() time.Time
	// Probe actively checks one peer (normally a GET /readyz through a
	// plain single-attempt client); nil disables ProbeAll. Passive
	// accounting via ReportSuccess/ReportFailure works without it.
	Probe func(ctx context.Context, peer string) error
}

// Health is the cluster's per-peer availability view: one half-open
// circuit breaker per peer (reusing internal/client's state machine),
// fed passively by the router's request outcomes and optionally
// actively by /readyz probes.
//
// Contract (inherited from client.Breaker): every Allow(peer) == true
// must be followed by exactly one ReportSuccess, ReportFailure or
// ReportCancelled for that peer — in the half-open state Allow grants
// the single probe slot, and dropping it would park the breaker
// half-open forever.
// Membership is dynamic: Ensure registers peers minted by a new ring
// epoch; peers that leave keep their breakers (a returning peer's
// failure history survives its absence, and a stale routing client
// referencing a removed peer still resolves its slots safely). The
// map is guarded by an RWMutex — breaker operations themselves are
// internally synchronized, the lock only protects registration.
type Health struct {
	cfg HealthConfig

	mu       sync.RWMutex
	peers    []string // sorted; fixes ProbeAll order
	breakers map[string]*client.Breaker
}

// NewHealth builds a health view over the given peers.
func NewHealth(peers []string, cfg HealthConfig) *Health {
	h := &Health{
		cfg:      cfg,
		breakers: make(map[string]*client.Breaker, len(peers)),
	}
	h.Ensure(peers)
	return h
}

// Ensure registers any of the given peers not yet in the view, each
// with a fresh (closed) breaker. Already-known peers keep their
// breaker and its history — an epoch change must not amnesty a flappy
// peer. Called by the router when it applies a membership epoch.
func (h *Health) Ensure(peers []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	added := false
	for _, p := range peers {
		if _, ok := h.breakers[p]; ok {
			continue
		}
		h.breakers[p] = client.NewBreaker(h.cfg.Breaker, h.cfg.Now)
		h.peers = append(h.peers, p)
		added = true
	}
	if added {
		sort.Strings(h.peers)
	}
}

// breaker looks up peer's breaker (nil if unknown).
func (h *Health) breaker(peer string) *client.Breaker {
	h.mu.RLock()
	b := h.breakers[peer]
	h.mu.RUnlock()
	return b
}

// Allow reports whether a request may be sent to peer, claiming the
// half-open probe slot when there is one. Unknown peers are never
// allowed.
func (h *Health) Allow(peer string) bool {
	b := h.breaker(peer)
	return b != nil && b.Allow()
}

// ReportSuccess records a useful completion from peer.
func (h *Health) ReportSuccess(peer string) {
	if b := h.breaker(peer); b != nil {
		b.Success()
	}
}

// ReportFailure records a retryable failure from peer.
func (h *Health) ReportFailure(peer string) {
	if b := h.breaker(peer); b != nil {
		b.Failure()
	}
}

// ReportCancelled releases an Allow slot whose request was abandoned
// (the caller's context died mid-request): no verdict either way.
func (h *Health) ReportCancelled(peer string) {
	if b := h.breaker(peer); b != nil {
		b.Cancel()
	}
}

// State names peer's breaker state ("closed", "open", "half-open"),
// or "unknown" for a peer outside the view.
func (h *Health) State(peer string) string {
	if b := h.breaker(peer); b != nil {
		return b.State()
	}
	return "unknown"
}

// Healthy reports whether peer currently accepts traffic (breaker not
// open). Unlike Allow it claims nothing — a pure read for status
// surfaces and gauges.
func (h *Health) Healthy(peer string) bool {
	return h.State(peer) == "closed" || h.State(peer) == "half-open"
}

// Transitions returns peer's breaker state-change count (the flap
// metric).
func (h *Health) Transitions(peer string) uint64 {
	if b := h.breaker(peer); b != nil {
		return b.Transitions()
	}
	return 0
}

// ProbeAll actively probes every peer the breaker admits, in sorted
// peer order (deterministic under test), feeding results back into the
// breakers. An open breaker whose cooldown has elapsed gets its
// half-open probe here instead of risking a user request. No-op
// without a Probe hook.
func (h *Health) ProbeAll(ctx context.Context) {
	if h.cfg.Probe == nil {
		return
	}
	h.mu.RLock()
	peers := append([]string(nil), h.peers...)
	h.mu.RUnlock()
	for _, p := range peers {
		if !h.Allow(p) {
			continue
		}
		if err := h.cfg.Probe(ctx, p); err != nil {
			h.ReportFailure(p)
		} else {
			h.ReportSuccess(p)
		}
	}
}
