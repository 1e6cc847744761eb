package cluster

import (
	"encoding/binary"
	"reflect"
	"testing"

	"joinopt/internal/fingerprint"
)

func fpN(i int) fingerprint.Fingerprint {
	var fp fingerprint.Fingerprint
	binary.BigEndian.PutUint64(fp[:8], uint64(i)*0x9e3779b97f4a7c15) // spread keys over the ring
	return fp
}

func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	a, err := NewRing([]string{"peer0", "peer1", "peer2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"peer2", "peer0", "peer1", "peer0"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equivalent peer lists built different rings")
	}
	for i := 0; i < 500; i++ {
		fp := fpN(i)
		if a.Primary(fp) != b.Primary(fp) {
			t.Fatalf("key %d: ring layout depends on peer list order", i)
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	peers := []string{"p0", "p1", "p2", "p3"}
	r, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.Primary(fpN(i))]++
	}
	for _, p := range peers {
		share := float64(counts[p]) / keys
		if share < 0.10 || share > 0.45 {
			t.Fatalf("peer %s owns %.1f%% of keys — virtual nodes not spreading load (%v)", p, share*100, counts)
		}
	}
}

// TestRingMembershipStability is consistent hashing's point: adding a
// peer moves only the keys on the arcs it claims, not a wholesale
// reshuffle (which would cold-start every cache in the cluster).
func TestRingMembershipStability(t *testing.T) {
	base, err := NewRing([]string{"p0", "p1", "p2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewRing([]string{"p0", "p1", "p2", "p3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2000
	moved, toNew := 0, 0
	for i := 0; i < keys; i++ {
		fp := fpN(i)
		was, now := base.Primary(fp), grown.Primary(fp)
		if was != now {
			moved++
			if now == "p3" {
				toNew++
			}
		}
	}
	if moved == 0 {
		t.Fatal("adding a peer moved nothing — the new peer owns no keys")
	}
	if moved != toNew {
		t.Fatalf("%d keys moved but only %d to the new peer: existing keys reshuffled among old peers", moved, toNew)
	}
	if frac := float64(moved) / keys; frac > 0.5 {
		t.Fatalf("adding 1 peer to 3 moved %.0f%% of keys, want roughly 1/4", frac*100)
	}
}

func TestRingRejectsEmptyMembership(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{""}, 0); err == nil {
		t.Fatal("empty peer name accepted")
	}
}
