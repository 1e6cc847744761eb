// Package cluster lets ljqd daemons exchange cached plans while each
// keeps its own plan cache. A deterministic consistent-hash ring
// assigns each canonical query fingerprint an owner; the daemons never
// forward requests to each other — every node answers every request
// from its own cache.
//
// What the ring buys without forwarding:
//
//   - warm start: a joining or restarting peer pulls another member's
//     GET /snapshot before it listens, so a restart does not trigger a
//     cold re-optimization storm (WarmStart; donors are tried in order
//     and a torn or dead donor falls through to the next);
//   - membership epochs: a roster file is polled into monotonically
//     numbered epochs (FileSource, WatchMembership);
//   - arc handoff: under each new epoch the Rebalancer pushes the arcs
//     this node no longer owns to their new owners over
//     POST /snapshot/arc and evicts them once the push is acked.
//
// Only a front end that routes by fingerprint (Ring.Primary) turns
// this into one search per shape per cluster; without one, a node that
// handed an arc off answers its next request for that shape as a cold
// miss.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"joinopt/internal/fingerprint"
)

// DefaultReplicas is the default virtual-node count per peer. 64
// points per peer keeps the expected load imbalance across a handful
// of peers within a few percent while the ring stays tiny (a sorted
// slice of peers·64 uint64s).
const DefaultReplicas = 64

// MaxMemberWeight caps a member's virtual-point multiplier: a typo'd
// weight in a membership file must not explode the ring into millions
// of points.
const MaxMemberWeight = 64

// Member is one ring member: a peer base URL plus its arc weight. A
// weight of w contributes w·Replicas virtual points, so raising a
// member's weight only moves arcs ONTO that member (its existing
// points are untouched; new points claim arcs from whoever held them)
// and lowering it only moves arcs off — the property the scripted
// MoveArc chaos action relies on. Weight ≤ 0 is normalized to 1.
type Member struct {
	URL    string `json:"url"`
	Weight int    `json:"weight"`
}

// Ring is an immutable consistent-hash ring over peer names.
//
// A member with weight w contributes w·Replicas virtual points, each
// the first 8 bytes (big-endian) of SHA-256("peer#k"). A fingerprint
// hashes to the first 8 bytes of itself — it is already a SHA-256 of
// the canonical query, so its prefix is uniform — and is owned by the
// first point clockwise from that value. Everything is a pure function
// of the member set, so every node (and any front end routing by
// fingerprint) derives the identical ring with no coordination.
type Ring struct {
	replicas int
	peers    []string
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	peer string
}

// NewRing builds a ring over the given peers, all at weight 1
// (deduplicated, order-insensitive: the ring layout depends only on
// the set). replicas ≤ 0 selects DefaultReplicas.
func NewRing(peers []string, replicas int) (*Ring, error) {
	members := make([]Member, 0, len(peers))
	for _, p := range peers {
		members = append(members, Member{URL: p, Weight: 1})
	}
	return NewRingMembers(members, replicas)
}

// NewRingMembers builds a weighted ring. Duplicate URLs collapse to
// one member with the larger weight (order-insensitive, like NewRing's
// dedup). replicas ≤ 0 selects DefaultReplicas.
func NewRingMembers(members []Member, replicas int) (*Ring, error) {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	weight := make(map[string]int, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m.URL == "" {
			return nil, fmt.Errorf("cluster: empty peer name")
		}
		w := m.Weight
		if w <= 0 {
			w = 1
		}
		if w > MaxMemberWeight {
			return nil, fmt.Errorf("cluster: member %s weight %d exceeds cap %d", m.URL, w, MaxMemberWeight)
		}
		if old, ok := weight[m.URL]; ok {
			if w > old {
				weight[m.URL] = w
			}
			continue
		}
		weight[m.URL] = w
		uniq = append(uniq, m.URL)
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	sort.Strings(uniq)
	r := &Ring{
		replicas: replicas,
		peers:    uniq,
		points:   make([]ringPoint, 0, len(uniq)*replicas),
	}
	for _, p := range uniq {
		for k := 0; k < weight[p]*replicas; k++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", p, k)))
			r.points = append(r.points, ringPoint{
				hash: binary.BigEndian.Uint64(sum[:8]),
				peer: p,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer // hash ties broken stably
	})
	return r, nil
}

// Peers returns the ring membership, sorted.
func (r *Ring) Peers() []string {
	return append([]string(nil), r.peers...)
}

// key maps a canonical fingerprint onto the ring's hash space.
func key(fp fingerprint.Fingerprint) uint64 {
	return binary.BigEndian.Uint64(fp[:8])
}

// Primary returns the peer that owns fp.
func (r *Ring) Primary(fp fingerprint.Fingerprint) string {
	return r.points[r.search(key(fp))].peer
}

// search finds the index of the first point clockwise from h.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return i
}
