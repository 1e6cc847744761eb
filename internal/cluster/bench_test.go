package cluster

import (
	"context"
	"net/http"
	"testing"

	"joinopt/internal/faultinject"
	"joinopt/internal/persist"
	"joinopt/internal/plancache"
	"joinopt/internal/serve"
)

// BenchmarkArcPushIngest measures proactive arc-push throughput end
// to end: the rebalancer encodes a 256-entry arc batch, POSTs it over
// the in-process transport, and the receiver strict-decodes and warms
// it (re-pushing the same batch is an idempotent same-tier refresh,
// so the hot path is identical to a first push). The per-op payload
// rate is the number to read next to BenchmarkWarmStartLoad: warm
// start is the pull path at join, arc push the push path at rebalance.
func BenchmarkArcPushIngest(b *testing.B) {
	receiver := serve.New(serve.Config{TCoeff: 1, Seed: 1})
	ct := faultinject.NewClusterTransport(map[string]http.Handler{"peer1": receiver.Handler()}, nil)
	rb, err := NewRebalancer(RebalanceConfig{
		Self:      "http://peer0",
		Cache:     plancache.New(plancache.Config{Capacity: 512}),
		Transport: ct,
	})
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]*plancache.Entry, 256)
	for i := range entries {
		entries[i] = wsEntry(i + 1)
	}
	ctx := context.Background()
	b.SetBytes(int64(len(persist.EncodeSnapshot(entries))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := rb.pushArc(ctx, "http://peer1", entries)
		if err != nil || n != len(entries) {
			b.Fatalf("pushed %d, err=%v", n, err)
		}
	}
}

// BenchmarkWarmStartLoad measures snapshot ingest: strict decode plus
// cache warm of a shipped 256-entry snapshot.
func BenchmarkWarmStartLoad(b *testing.B) {
	entries := make([]*plancache.Entry, 256)
	for i := range entries {
		entries[i] = wsEntry(i + 1)
	}
	payload := persist.EncodeSnapshot(entries)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded, err := persist.DecodeSnapshotStrict(payload)
		if err != nil {
			b.Fatal(err)
		}
		cache := plancache.New(plancache.Config{Capacity: 512})
		for _, e := range decoded {
			cache.Warm(e)
		}
	}
}
