package cluster

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"joinopt/internal/vfs"
)

// Dynamic membership: the ring stops being a boot-time constant and
// becomes a sequence of *epochs* — immutable (member set, ring)
// snapshots tagged with a monotonically increasing sequence number.
// Every consumer (the Rebalancer's push/evict diff, the daemon's
// warm-start donor list) observes exactly one epoch per decision, so a
// membership change can never tear one handoff across two rings.
//
// The seam is deliberately pull-based and clockless: a FileSource
// re-reads a membership file through the vfs seam when Poll is called,
// and the epoch sequence advances only when the *parsed member set*
// changes — whitespace edits and rewrites of identical content do not
// burn epochs. Nothing in the decision path reads a wall clock; the
// daemon's poll loop owns the cadence (with an injectable sleeper), so
// tests drive transitions at exact, reproducible points.

// Epoch is one immutable membership generation: a monotonically
// numbered member set plus the consistent-hash ring derived from it.
// Epochs are shared read-only via pointer; never mutate one after
// construction.
type Epoch struct {
	// Seq is the epoch's sequence number. The initial membership —
	// whether from a static -peers list or a membership file's first
	// read — is epoch 0; every observed change increments it. Consumers
	// apply epochs monotonically and ignore stale ones.
	Seq uint64
	// Members is the member set, sorted by URL, weights normalized.
	Members []Member

	ring *Ring
}

// NewEpoch derives an epoch from a member set. replicas ≤ 0 selects
// DefaultReplicas. The member slice is copied, deduplicated (larger
// weight wins) and sorted; the caller's slice is not retained.
func NewEpoch(seq uint64, members []Member, replicas int) (*Epoch, error) {
	ring, err := NewRingMembers(members, replicas)
	if err != nil {
		return nil, err
	}
	// Rebuild the canonical member list from the ring's deduplicated
	// view so two epochs with equal rings compare equal member-wise.
	weight := make(map[string]int, len(members))
	for _, m := range members {
		w := m.Weight
		if w <= 0 {
			w = 1
		}
		if w > weight[m.URL] {
			weight[m.URL] = w
		}
	}
	canon := make([]Member, 0, len(ring.peers))
	for _, p := range ring.peers { // ring.peers is sorted
		canon = append(canon, Member{URL: p, Weight: weight[p]})
	}
	return &Epoch{Seq: seq, Members: canon, ring: ring}, nil
}

// StaticEpoch models a fixed -peers deployment as a never-changing
// epoch 0: the pre-dynamic-membership world expressed in the new
// vocabulary.
func StaticEpoch(peers []string, replicas int) (*Epoch, error) {
	members := make([]Member, 0, len(peers))
	for _, p := range peers {
		members = append(members, Member{URL: p, Weight: 1})
	}
	return NewEpoch(0, members, replicas)
}

// Ring returns the epoch's consistent-hash ring.
func (e *Epoch) Ring() *Ring { return e.ring }

// Peers returns the epoch's member URLs, sorted.
func (e *Epoch) Peers() []string { return e.ring.Peers() }

// HasPeer reports whether url is a member of this epoch.
func (e *Epoch) HasPeer(url string) bool {
	for _, m := range e.Members {
		if m.URL == url {
			return true
		}
	}
	return false
}

// String renders the epoch for logs and trajectory lines:
// "epoch 3 [a b*2 c]" (a weight suffix only when ≠ 1).
func (e *Epoch) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d [", e.Seq)
	for i, m := range e.Members {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(m.URL)
		if m.Weight != 1 {
			fmt.Fprintf(&b, "*%d", m.Weight)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// sameMembers reports whether two canonical (sorted, deduped,
// normalized) member lists are equal.
func sameMembers(a, b []Member) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ParseMembership parses the membership file format: one member per
// line as "URL [weight]", with blank lines and #-comments ignored.
// URLs are trimmed of trailing slashes (matching the -peers parser);
// weights default to 1 and must be in [1, MaxMemberWeight]. A URL
// listed twice is an error — a membership file is a roster, and a
// duplicate line is almost certainly an editing mistake.
func ParseMembership(data []byte) ([]Member, error) {
	var members []Member
	seen := make(map[string]bool)
	for ln, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) > 2 {
			return nil, fmt.Errorf("cluster: membership line %d: want \"URL [weight]\", got %d fields", ln+1, len(fields))
		}
		url := strings.TrimRight(fields[0], "/")
		if url == "" {
			return nil, fmt.Errorf("cluster: membership line %d: empty URL", ln+1)
		}
		if seen[url] {
			return nil, fmt.Errorf("cluster: membership line %d: duplicate member %s", ln+1, url)
		}
		seen[url] = true
		w := 1
		if len(fields) == 2 {
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("cluster: membership line %d: bad weight %q: %v", ln+1, fields[1], err)
			}
			if n < 1 || n > MaxMemberWeight {
				return nil, fmt.Errorf("cluster: membership line %d: weight %d outside [1, %d]", ln+1, n, MaxMemberWeight)
			}
			w = n
		}
		members = append(members, Member{URL: url, Weight: w})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: membership file lists no members")
	}
	return members, nil
}

// FileSource watches a membership file through the vfs seam and turns
// its content changes into an epoch sequence. It is poll-based: each
// Poll re-reads the file and, when the parsed member set differs from
// the current epoch's, mints the next epoch. A transiently unreadable
// or unparseable file never tears the ring down — Poll reports the
// error and the current epoch stays in force (robustness over
// freshness: a half-written config must not empty the cluster).
type FileSource struct {
	fs       vfs.FS
	path     string
	replicas int

	mu  sync.Mutex
	cur *Epoch
}

// NewFileSource reads the membership file once and pins its content as
// epoch 0. The initial read must succeed — a daemon started against a
// missing or defective roster should fail loudly, not join an empty
// ring. fs == nil selects the real filesystem; replicas ≤ 0 selects
// DefaultReplicas.
func NewFileSource(fs vfs.FS, path string, replicas int) (*FileSource, error) {
	if fs == nil {
		fs = vfs.OS{}
	}
	s := &FileSource{fs: fs, path: path, replicas: replicas}
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read membership file: %w", err)
	}
	members, err := ParseMembership(data)
	if err != nil {
		return nil, err
	}
	e, err := NewEpoch(0, members, replicas)
	if err != nil {
		return nil, err
	}
	s.cur = e
	return s, nil
}

// Current returns the latest minted epoch.
func (s *FileSource) Current() *Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Poll re-reads the membership file. It returns the current epoch, a
// flag reporting whether this call minted a new one, and any read or
// parse error (in which case the returned epoch is the unchanged
// current one). Content that parses to the same member set does not
// advance the sequence.
func (s *FileSource) Poll() (*Epoch, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := s.fs.ReadFile(s.path)
	if err != nil {
		return s.cur, false, fmt.Errorf("cluster: read membership file: %w", err)
	}
	members, err := ParseMembership(data)
	if err != nil {
		return s.cur, false, err
	}
	next, err := NewEpoch(s.cur.Seq+1, members, s.replicas)
	if err != nil {
		return s.cur, false, err
	}
	if sameMembers(s.cur.Members, next.Members) {
		return s.cur, false, nil
	}
	s.cur = next
	return s.cur, true, nil
}

// WatchMembership polls src every interval until ctx dies, invoking
// apply for each newly minted epoch and onErr (if non-nil) for poll
// errors. sleep overrides the inter-poll wait (nil = ctx-aware real
// timer); tests inject a no-op or stepped sleeper to drive transitions
// deterministically. interval ≤ 0 selects 2s.
func WatchMembership(ctx context.Context, src *FileSource, interval time.Duration, sleep func(ctx context.Context, d time.Duration) error, apply func(*Epoch), onErr func(error)) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if sleep == nil {
		sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	for {
		if err := sleep(ctx, interval); err != nil {
			return
		}
		if ctx.Err() != nil {
			return
		}
		e, changed, err := src.Poll()
		if err != nil {
			if onErr != nil {
				onErr(err)
			}
			continue
		}
		if changed {
			apply(e)
		}
	}
}
