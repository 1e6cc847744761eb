package cluster

// chaos_test.go is the cluster acceptance test: three in-process ljqd
// peers with scripted kills and restarts — including a donor dying
// mid-snapshot-stream — woven through live traffic at exact operation
// indices. Each request goes straight to its ring owner; no peer
// forwards. A restarting peer must warm-start from a shipped snapshot
// (falling to the next donor when a stream tears, joining cold when
// every donor is dead), a warm-served plan must be byte-identical to
// the shipped one, two same-seed runs must produce byte-identical
// trajectory logs and response sequences, and nothing may leak
// goroutines.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/faultinject"
	"joinopt/internal/serve"
)

// chaosRun is one full scripted cluster lifetime's artifacts.
type chaosRun struct {
	trajectory string            // the transport's op-ordered event log
	responses  []byte            // JSON of every response or error, in order
	warmLog    []string          // restart-hook warm-start outcomes
	shipped    map[string][]byte // responses the warm-plan check compares
}

// runChaosScript builds a fresh 3-peer cluster and drives the scripted
// kill/restart/traffic interleaving. Everything is seeded and the
// caller is sequential, so two invocations must agree byte for byte.
func runChaosScript(t *testing.T) *chaosRun {
	t.Helper()
	peers := []string{"http://peer0", "http://peer1", "http://peer2"}
	epoch, err := StaticEpoch(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	ring := epoch.Ring()
	// Six shapes, two owned by each peer.
	shapes := map[string]*catalog.Query{
		"sA": queryOwnedBy(t, ring, "http://peer0", 7),
		"sE": queryOwnedBy(t, ring, "http://peer0", 8),
		"sB": queryOwnedBy(t, ring, "http://peer1", 8),
		"sD": queryOwnedBy(t, ring, "http://peer1", 7),
		"sC": queryOwnedBy(t, ring, "http://peer2", 9),
		"sF": queryOwnedBy(t, ring, "http://peer2", 10),
	}

	servers := map[string]*serve.Server{}
	handlers := map[string]http.Handler{}
	for _, p := range peers {
		srv := serve.New(serve.Config{TCoeff: 1, Seed: 1})
		servers[hostOf(p)] = srv
		handlers[hostOf(p)] = srv.Handler()
	}

	// Donor precedence per restarting peer. peer2's first donor is
	// peer1 — the one the script kills mid-snapshot-stream — so its
	// second warm-start must recover by falling to peer0.
	donors := map[string][]string{
		"peer0": {"http://peer1", "http://peer2"},
		"peer1": {"http://peer0", "http://peer2"},
		"peer2": {"http://peer1", "http://peer0"},
	}

	run := &chaosRun{shipped: map[string][]byte{}}
	var ct *faultinject.ClusterTransport
	restart := func(peer string) http.Handler {
		// A restarting peer warm-starts through the same transport the
		// traffic uses: its donor fetches claim op indices like any
		// other request, and a scripted mid-stream kill can tear them.
		// Warm-start failure is non-fatal — the peer joins cold.
		srv := serve.New(serve.Config{TCoeff: 1, Seed: 1})
		res, werr := WarmStart(context.Background(), srv.Cache(), WarmStartConfig{
			Donors:    donors[peer],
			Transport: ct,
		})
		run.warmLog = append(run.warmLog, fmt.Sprintf("%s warmed=%d donor=%q attempts=%d err=%v",
			peer, res.Entries, res.Donor, len(res.Attempts), werr != nil))
		servers[peer] = srv
		return srv.Handler()
	}

	// The script, at exact global op indices (ops are claimed per
	// transport round trip; actions fire before the claiming op
	// dispatches):
	//   phase A  ops 0-7    warm traffic, all peers alive
	//   op 8                all three peers die; two requests find
	//   phase B  ops 8-9    their owners down
	//   op 10               peer2 restarts; both donors dead (ops 11-12)
	//                       → it joins cold and recomputes sC (op 10),
	//                       the plan the later snapshots ship
	//   phase C  ops 10-14  peer2 serves its shapes; peer1's are down
	//   op 15               peer0 restarts: dead peer1 (op 16) falls
	//                       through to peer2, which ships (op 17)
	//   op 19               peer1 restarts, warm from peer0 (op 20)
	//   phase D  ops 15-22  peer0 and peer1 recompute their own shapes
	//   op 23               peer2 dies, peer1 is armed to die mid-
	//                       response, and peer2 restarts: its snapshot
	//                       fetch from peer1 tears (op 24), the fallback
	//                       donor peer0 ships (op 25)
	//   phase E  ops 23-27  peer2 serves the shipped plans; peer1 is down
	//   op 28               peer1 restarts, warm from peer0 (op 29)
	//   phase F  ops 28-36  peer1 recomputes its lost shapes, then a
	//                       full sweep in which every shape is a hit
	ct = faultinject.NewClusterTransport(handlers, restart,
		faultinject.PeerAction{AtOp: 8, Kind: faultinject.KillPeer, Peer: "peer0"},
		faultinject.PeerAction{AtOp: 8, Kind: faultinject.KillPeer, Peer: "peer1"},
		faultinject.PeerAction{AtOp: 8, Kind: faultinject.KillPeer, Peer: "peer2"},
		faultinject.PeerAction{AtOp: 10, Kind: faultinject.RestartPeer, Peer: "peer2"},
		faultinject.PeerAction{AtOp: 15, Kind: faultinject.RestartPeer, Peer: "peer0"},
		faultinject.PeerAction{AtOp: 19, Kind: faultinject.RestartPeer, Peer: "peer1"},
		faultinject.PeerAction{AtOp: 23, Kind: faultinject.KillPeer, Peer: "peer2"},
		faultinject.PeerAction{AtOp: 23, Kind: faultinject.KillMidResponse, Peer: "peer1", AfterBytes: 200},
		faultinject.PeerAction{AtOp: 23, Kind: faultinject.RestartPeer, Peer: "peer2"},
		faultinject.PeerAction{AtOp: 28, Kind: faultinject.RestartPeer, Peer: "peer1"},
	)

	var recorded []json.RawMessage
	ctx := context.Background()
	// do sends a shape to its owner and demands a valid plan (a cache
	// hit when wantHit); record names the response for later checks.
	do := func(name string, wantHit bool, record string) {
		t.Helper()
		q := shapes[name]
		resp, owner, err := optimizeAtOwner(ctx, ct, epoch, q)
		if err != nil {
			t.Fatalf("shape %s on %s at op %d: %v", name, owner, ct.Ops(), err)
		}
		if resp.Explain == "" || len(resp.Order) != len(q.Relations) || resp.Fingerprint == "" {
			t.Fatalf("shape %s at op %d: invalid plan %+v", name, ct.Ops(), resp)
		}
		if wantHit && !resp.CacheHit {
			t.Fatalf("shape %s on %s at op %d: want a cache hit, got a cold computation", name, owner, ct.Ops())
		}
		raw, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		recorded = append(recorded, raw)
		if record != "" {
			run.shipped[record] = raw
		}
	}
	// down sends a shape whose owner is dead: the request fails with
	// the transport's peer-down error, and no other peer answers it.
	down := func(name string) {
		t.Helper()
		_, owner, err := optimizeAtOwner(ctx, ct, epoch, shapes[name])
		if !errors.Is(err, faultinject.ErrPeerDown) {
			t.Fatalf("shape %s on dead owner %s at op %d: err = %v, want peer down", name, owner, ct.Ops(), err)
		}
		raw, merr := json.Marshal(map[string]string{"shape": name, "error": err.Error()})
		if merr != nil {
			t.Fatal(merr)
		}
		recorded = append(recorded, raw)
	}

	// Phase A: warm every shape on its owner, then two repeat hits.
	for _, n := range []string{"sA", "sB", "sC", "sD", "sE", "sF"} {
		do(n, false, "")
	}
	do("sA", true, "")
	do("sC", true, "")
	// Phase B: total peer loss.
	down("sA")
	down("sD")
	// Phase C: peer2 restarts cold (its donors are still dead) and
	// recomputes its shapes. The sC response here is the plan the
	// snapshots will ship peer2 → peer0 → peer2.
	do("sC", false, "chainSource")
	do("sF", false, "")
	down("sB")
	// Phase D: peer0 back, warm from peer2's snapshot; it recomputes
	// its own shapes. Then peer1 back, warm from peer0, and the same.
	do("sA", false, "")
	do("sE", false, "")
	do("sC", true, "")
	do("sB", false, "")
	do("sD", false, "")
	// Phase E: peer2 restarts while its first donor dies mid-stream;
	// its first request must already be a warm hit off the fallback
	// donor's snapshot.
	do("sC", true, "warmServed")
	do("sF", true, "")
	down("sB")
	// Phase F: peer1 back once more, without the plans it computed
	// itself (its donor never had them); then a full sweep, everything
	// cached.
	do("sD", false, "")
	do("sB", false, "")
	for _, n := range []string{"sA", "sB", "sC", "sD", "sE", "sF"} {
		do(n, true, "")
	}

	// The restarted peer2 never ran its own optimizer: every plan it
	// serves came off the shipped snapshot.
	p2 := servers["peer2"]
	if st := p2.Cache().Stats(); st.Warmed == 0 || st.Misses != 0 {
		t.Fatalf("restarted peer2 cache stats %+v: want warmed entries and zero misses", st)
	}

	blob, err := json.Marshal(recorded)
	if err != nil {
		t.Fatal(err)
	}
	run.responses = blob
	run.trajectory = ct.Trajectory()
	return run
}

// TestClusterChaosScripted is the acceptance run (see file comment).
func TestClusterChaosScripted(t *testing.T) {
	before := runtime.NumGoroutine()

	first := runChaosScript(t)

	tr := first.trajectory
	for _, want := range []string{
		"!kill peer0", "!kill peer1", "!kill peer2", // total loss
		"!restart peer2", "!restart peer0", "!restart peer1",
		"!arm-torn peer1 after=200",
		"GET peer1/snapshot -> torn@200", // donor died mid-snapshot-stream
		"GET peer0/snapshot -> 200",      // fallback donor shipped
	} {
		if !strings.Contains(tr, want) {
			t.Fatalf("trajectory missing %q:\n%s", want, tr)
		}
	}
	// peer2's first (cold) restart failed both donors non-fatally;
	// peer0's fell through a dead donor; peer2's second recovered from
	// the torn stream via its second donor.
	wantWarm := []string{
		`peer2 warmed=0 donor="" attempts=2 err=true`,
		`peer0 warmed=2 donor="http://peer2" attempts=1 err=false`,
		`peer1 warmed=4 donor="http://peer0" attempts=0 err=false`,
		`peer2 warmed=4 donor="http://peer0" attempts=1 err=false`,
		`peer1 warmed=4 donor="http://peer0" attempts=0 err=false`,
	}
	if strings.Join(first.warmLog, "\n") != strings.Join(wantWarm, "\n") {
		t.Fatalf("warm log:\n%s\nwant:\n%s", strings.Join(first.warmLog, "\n"), strings.Join(wantWarm, "\n"))
	}

	// The restarted peer serves the shipped plan byte-identically as a
	// cache hit: same plan as its donor chain's source, flipped to
	// cacheHit (it did no work of its own).
	source := string(first.shipped["chainSource"])
	served := string(first.shipped["warmServed"])
	wantServed := strings.Replace(source, `"cacheHit":false`, `"cacheHit":true`, 1)
	if source == served {
		t.Fatal("chain source was already a cache hit — phase C did not recompute sC")
	}
	if served != wantServed {
		t.Fatalf("warm-served plan drifted from the shipped one:\nshipped: %s\nserved:  %s", source, served)
	}

	// Determinism: a second same-seed run reproduces the trajectory and
	// every response byte for byte.
	second := runChaosScript(t)
	if first.trajectory != second.trajectory {
		t.Fatalf("same-seed trajectories differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first.trajectory, second.trajectory)
	}
	if string(first.responses) != string(second.responses) {
		t.Fatal("same-seed response sequences differ")
	}

	// No goroutines may survive the cluster's lifetime.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}
