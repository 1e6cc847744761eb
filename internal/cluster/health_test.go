package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"joinopt/internal/client"
)

// fakeClock is a manually advanced clock for deterministic breaker
// cooldowns.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func TestHealthPassiveAccountingAndRecovery(t *testing.T) {
	clk := newFakeClock()
	h := NewHealth([]string{"p0", "p1"}, HealthConfig{
		Breaker: client.BreakerConfig{Threshold: 2, Cooldown: 5 * time.Second},
		Now:     clk.now,
	})

	if !h.Allow("p0") || !h.Allow("p1") {
		t.Fatal("fresh peers must be allowed")
	}
	h.ReportSuccess("p0")
	h.ReportSuccess("p1")

	// Two consecutive failures open p0; p1 is unaffected.
	for i := 0; i < 2; i++ {
		if !h.Allow("p0") {
			t.Fatalf("failure %d: closed breaker refused", i)
		}
		h.ReportFailure("p0")
	}
	if h.Allow("p0") {
		t.Fatal("open breaker admitted a request")
	}
	if h.Healthy("p0") || !h.Healthy("p1") {
		t.Fatalf("health view wrong: p0=%s p1=%s", h.State("p0"), h.State("p1"))
	}

	// Cooldown elapses: exactly one probe slot.
	clk.advance(5 * time.Second)
	if !h.Allow("p0") {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if h.Allow("p0") {
		t.Fatal("second request admitted while the probe is in flight")
	}
	h.ReportSuccess("p0")
	if h.State("p0") != "closed" {
		t.Fatalf("probe success left p0 %s", h.State("p0"))
	}
}

// TestHealthCancelledSlotReleased: abandoning a claimed half-open slot
// with ReportCancelled frees the probe for the next request instead of
// parking the breaker half-open forever.
func TestHealthCancelledSlotReleased(t *testing.T) {
	clk := newFakeClock()
	h := NewHealth([]string{"p0"}, HealthConfig{
		Breaker: client.BreakerConfig{Threshold: 1, Cooldown: time.Second},
		Now:     clk.now,
	})
	h.ReportFailure("p0") // opens (threshold 1)
	clk.advance(time.Second)
	if !h.Allow("p0") {
		t.Fatal("probe refused")
	}
	h.ReportCancelled("p0") // abandoned request: no verdict
	if h.State("p0") != "half-open" {
		t.Fatalf("cancel changed state to %s", h.State("p0"))
	}
	if !h.Allow("p0") {
		t.Fatal("released probe slot not reusable")
	}
	h.ReportSuccess("p0")
	if h.State("p0") != "closed" {
		t.Fatalf("state %s after probe success", h.State("p0"))
	}
}

func TestHealthUnknownPeerNeverAllowed(t *testing.T) {
	h := NewHealth([]string{"p0"}, HealthConfig{})
	if h.Allow("ghost") {
		t.Fatal("unknown peer allowed")
	}
	if h.State("ghost") != "unknown" || h.Healthy("ghost") {
		t.Fatal("unknown peer reported a state")
	}
	h.ReportSuccess("ghost") // must not panic
	h.ReportFailure("ghost")
	h.ReportCancelled("ghost")
}

func TestHealthProbeAllDeterministicOrderAndVerdicts(t *testing.T) {
	clk := newFakeClock()
	var probed []string
	h := NewHealth([]string{"p2", "p0", "p1"}, HealthConfig{
		Breaker: client.BreakerConfig{Threshold: 1, Cooldown: time.Second},
		Now:     clk.now,
		Probe: func(_ context.Context, peer string) error {
			probed = append(probed, peer)
			if peer == "p1" {
				return errors.New("unreachable")
			}
			return nil
		},
	})
	ctx := context.Background()
	h.ProbeAll(ctx)
	if len(probed) != 3 || probed[0] != "p0" || probed[1] != "p1" || probed[2] != "p2" {
		t.Fatalf("probe order %v, want sorted [p0 p1 p2]", probed)
	}
	if h.State("p1") != "open" {
		t.Fatalf("failed probe left p1 %s (threshold 1)", h.State("p1"))
	}
	// While open and cooling down, ProbeAll skips p1 entirely.
	probed = nil
	h.ProbeAll(ctx)
	if len(probed) != 2 {
		t.Fatalf("cooling peer was probed: %v", probed)
	}
	// After cooldown the probe IS the half-open probe and recloses it.
	clk.advance(time.Second)
	probed = nil
	h.ProbeAll(ctx)
	if len(probed) != 3 || h.State("p1") != "open" {
		// p1's probe ran again and failed again: re-opened.
		if h.State("p1") != "open" {
			t.Fatalf("p1 state %s", h.State("p1"))
		}
	}
}
