package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/client"
	"joinopt/internal/fingerprint"
	"joinopt/internal/serve"
	"joinopt/internal/workload"
)

// hostOf strips the scheme from a peer base URL: the transport host
// name faultinject.ClusterTransport dispatches on.
func hostOf(peer string) string { return strings.TrimPrefix(peer, "http://") }

// queryOwnedBy searches seeds for a query whose ring primary is the
// wanted peer.
func queryOwnedBy(t *testing.T, ring *Ring, peer string, n int) *catalog.Query {
	t.Helper()
	for seed := int64(1); seed < 2000; seed++ {
		q := workload.Default().Generate(n, rand.New(rand.NewSource(seed)))
		fp, _, _ := fingerprint.CanonicalQuery(q)
		if ring.Primary(fp) == peer {
			return q
		}
	}
	t.Fatalf("no %d-join query found with primary %s", n, peer)
	return nil
}

// forgeHeaderCRC recomputes a persist container header's CRC in place
// after the test tampered with its version bytes, so only the decoder's
// semantic checks (not the checksum) can object.
func forgeHeaderCRC(data []byte) {
	crc := crc32.Checksum(data[:8], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(data[8:12], crc)
}

// jsonDecode decodes an *http.Response body, failing on non-200.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// statusOf fetches a peer's /statusz.
func statusOf(base string) (*serve.StatusResponse, error) {
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		return nil, err
	}
	var st serve.StatusResponse
	if err := jsonDecode(resp, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// optimizeAtOwner sends q straight to its ring owner under ep, the way
// a front end routing by fingerprint would: a plain client, one
// attempt, no breaker and no failover. A dead owner's error is
// returned as is; the cluster never forwards a request.
func optimizeAtOwner(ctx context.Context, transport http.RoundTripper, ep *Epoch, q *catalog.Query) (*serve.OptimizeResponse, string, error) {
	fp, _ := fingerprint.Canonical(q)
	owner := ep.Ring().Primary(fp)
	c, err := client.New(client.Config{
		BaseURL:           owner,
		Transport:         transport,
		MaxAttempts:       1,
		PerAttemptTimeout: time.Minute,
		Breaker:           client.BreakerConfig{Threshold: -1},
	})
	if err != nil {
		return nil, owner, err
	}
	resp, err := c.Optimize(ctx, q)
	return resp, owner, err
}
