package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"joinopt/internal/core"
	"joinopt/internal/plancache"
	"joinopt/internal/telemetry"
	"joinopt/internal/workload"
)

// TestTieredColdMissServesGreedyThenUpgrades is the acceptance test of
// the tiered ladder: a cold miss is answered from the greedy tier
// (Tier 1 in the body, header and Explain), and once the background
// upgrade lands, the same query is a cache hit served from the full
// search (Tier 2) — with both responses byte-identical across
// same-seed runs.
func TestTieredColdMissServesGreedyThenUpgrades(t *testing.T) {
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	body := queryBody(t, q)

	run := func(t *testing.T) (cold, warm []byte) {
		s, ts := newTestServer(t, Config{Tiered: true})

		resp, or := postOptimize(t, ts.URL, body)
		if or.CacheHit {
			t.Fatal("cold request reported a cache hit")
		}
		if or.Tier != int(plancache.TierGreedy) {
			t.Fatalf("cold request served tier %d, want %d (greedy)", or.Tier, plancache.TierGreedy)
		}
		if got := resp.Header.Get("X-Plan-Tier"); got != "1" {
			t.Fatalf("cold X-Plan-Tier = %q, want \"1\"", got)
		}
		if !bytes.Contains([]byte(or.Explain), []byte("tier 1 (greedy fast path)")) {
			t.Fatalf("cold Explain missing tier line:\n%s", or.Explain)
		}
		if or.Degraded {
			t.Fatal("greedy plan flagged degraded")
		}
		if len(or.Order) != 21 {
			t.Fatalf("cold order covers %d relations, want 21", len(or.Order))
		}
		cold = []byte(or.Explain)

		// Deterministically wait for the background upgrade to land.
		s.WaitUpgrades()

		resp2, or2 := postOptimize(t, ts.URL, body)
		if !or2.CacheHit {
			t.Fatal("second request missed the cache")
		}
		if or2.Tier != int(plancache.TierFull) {
			t.Fatalf("post-upgrade request served tier %d, want %d (full)", or2.Tier, plancache.TierFull)
		}
		if got := resp2.Header.Get("X-Plan-Tier"); got != "2" {
			t.Fatalf("post-upgrade X-Plan-Tier = %q, want \"2\"", got)
		}
		if !bytes.Contains([]byte(or2.Explain), []byte("tier 2 (full anytime search)")) {
			t.Fatalf("post-upgrade Explain missing tier line:\n%s", or2.Explain)
		}
		if or2.Degraded {
			t.Fatal("upgraded plan flagged degraded")
		}
		if or2.BudgetUsed <= or.BudgetUsed {
			t.Fatalf("upgraded BudgetUsed %d not above greedy work %d", or2.BudgetUsed, or.BudgetUsed)
		}

		g, f := s.Cache().TierCounts()
		if g != 0 || f != 1 {
			t.Fatalf("cache tier composition (%d, %d), want (0, 1) after upgrade", g, f)
		}
		return cold, []byte(or2.Explain)
	}

	cold1, warm1 := run(t)
	cold2, warm2 := run(t)
	if !bytes.Equal(cold1, cold2) {
		t.Fatalf("greedy-tier Explain differs across same-seed runs:\n%s\n---\n%s", cold1, cold2)
	}
	if !bytes.Equal(warm1, warm2) {
		t.Fatalf("upgraded Explain differs across same-seed runs:\n%s\n---\n%s", warm1, warm2)
	}
}

// TestTieredEscalation: with an absurdly low threshold every greedy
// plan escalates, so the cold miss pays the synchronous full search
// and no upgrade is scheduled.
func TestTieredEscalation(t *testing.T) {
	s, ts := newTestServer(t, Config{Tiered: true, GreedyThreshold: 1e-300})
	q := workload.Default().Generate(12, rand.New(rand.NewSource(7)))

	_, or := postOptimize(t, ts.URL, queryBody(t, q))
	if or.Tier != int(plancache.TierFull) {
		t.Fatalf("escalated miss served tier %d, want %d", or.Tier, plancache.TierFull)
	}
	if or.CacheHit {
		t.Fatal("cold request reported a cache hit")
	}

	st := statusz(t, ts.URL)
	if !st.Tiers.Enabled {
		t.Fatal("statusz reports tiering disabled")
	}
	if st.Tiers.Escalations != 1 {
		t.Fatalf("escalations = %d, want 1", st.Tiers.Escalations)
	}
	if st.Tiers.Tier1Served != 0 || st.Tiers.UpgradesStarted != 0 {
		t.Fatalf("escalated miss leaked into the greedy pipeline: %+v", st.Tiers)
	}
	if st.Tiers.Tier1Entries != 0 || st.Tiers.Tier2Entries != 1 {
		t.Fatalf("tier composition (%d, %d), want (0, 1)", st.Tiers.Tier1Entries, st.Tiers.Tier2Entries)
	}
	s.WaitUpgrades() // no-op, but must not hang
}

// TestTieredBatch: batch items route through the tier orchestrator —
// all cold items come back Tier-1 with one compute per unique
// fingerprint, and the upgrades land per unique shape.
func TestTieredBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{Tiered: true})

	qa := workload.Default().Generate(8, rand.New(rand.NewSource(1)))
	qb := workload.Default().Generate(10, rand.New(rand.NewSource(2)))
	items := [][]byte{queryBody(t, qa), queryBody(t, qb), queryBody(t, qa)}

	var breq BatchRequest
	for _, it := range items {
		breq.Queries = append(breq.Queries, json.RawMessage(it))
	}
	buf, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/optimize/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var bresp BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(bresp.Results))
	}
	for i, r := range bresp.Results {
		if r.Error != "" || r.Plan == nil {
			t.Fatalf("item %d failed: %s", i, r.Error)
		}
		if r.Plan.Tier != int(plancache.TierGreedy) {
			t.Fatalf("cold batch item %d served tier %d, want %d", i, r.Plan.Tier, plancache.TierGreedy)
		}
	}

	s.WaitUpgrades()
	st := statusz(t, ts.URL)
	if st.Tiers.UpgradesStarted != 2 || st.Tiers.UpgradesCompleted != 2 {
		t.Fatalf("upgrades started/completed = %d/%d, want 2/2 (one per unique shape)",
			st.Tiers.UpgradesStarted, st.Tiers.UpgradesCompleted)
	}
	if st.Tiers.Tier1Entries != 0 || st.Tiers.Tier2Entries != 2 {
		t.Fatalf("tier composition (%d, %d), want (0, 2)", st.Tiers.Tier1Entries, st.Tiers.Tier2Entries)
	}
}

// TestUntieredStatuszTierComposition: without tiering, /statusz still
// reports the cache's tier composition (full-search entries), with the
// pipeline marked disabled.
func TestUntieredStatuszTierComposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := workload.Default().Generate(6, rand.New(rand.NewSource(5)))
	_, or := postOptimize(t, ts.URL, queryBody(t, q))
	if or.Tier != int(plancache.TierFull) {
		t.Fatalf("untiered response tier %d, want %d", or.Tier, plancache.TierFull)
	}
	st := statusz(t, ts.URL)
	if st.Tiers.Enabled {
		t.Fatal("statusz reports tiering enabled on an untiered server")
	}
	if st.Tiers.Tier1Entries != 0 || st.Tiers.Tier2Entries != 1 {
		t.Fatalf("tier composition (%d, %d), want (0, 1)", st.Tiers.Tier1Entries, st.Tiers.Tier2Entries)
	}
}

// statusz fetches and decodes GET /statusz.
func statusz(t *testing.T, base string) StatusResponse {
	t.Helper()
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTierCostRatioNeverBelowOne: ljq_tier_cost_ratio divides the
// greedy plan's cost by the upgraded plan's cost, both priced by the
// upgrade's estimator. The upgrade is warm-started from the greedy
// order and keeps the best plan it saw, so it is never worse than its
// incumbent: every observed ratio is ≥ 1 (up to float summation order).
// Upgrades run one at a time, so each one's ratio is the histogram
// sum's delta.
func TestTierCostRatioNeverBelowOne(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Config{Tiered: true, Metrics: reg, Method: core.IAI, TCoeff: 9})
	h := s.tiers.ratioH
	observed := 0
	for n := 10; n <= 50; n += 5 {
		for seed := int64(1); seed <= 20; seed++ {
			q := workload.Default().Generate(n, rand.New(rand.NewSource(seed*1000+int64(n))))
			count, sum := h.Count(), h.Sum()
			if _, err := s.OptimizeQuery(context.Background(), q); err != nil {
				t.Fatal(err)
			}
			s.WaitUpgrades()
			if h.Count() == count {
				continue // escalated miss or repeated shape: no upgrade ran
			}
			observed++
			if ratio := h.Sum() - sum; ratio < 1-1e-9 {
				t.Errorf("n=%d seed=%d: cost ratio %.12g < 1: the upgrade looks worse than its greedy incumbent", n, seed, ratio)
			}
		}
	}
	if observed < 150 {
		t.Fatalf("only %d upgrades observed, want at least 150", observed)
	}
}
