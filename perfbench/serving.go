package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/fingerprint"
	"joinopt/internal/persist"
	"joinopt/internal/plancache"
)

// Seed streams: each generated input family draws from its own.
const (
	streamMatrix uint64 = iota + 1
	streamMatrixRun
	streamPrep
	streamHotOrder
	streamChurnShapes
	streamChurnMix
)

// Serving workload sizes (full run, then -smoke).
const (
	// prepShapes is how many tier-2 plans the daemon recovers at start:
	// about three quarters of cacheCapacity, so no shard of the cache
	// (capacity/shards entries each) overflows at recovery.
	prepShapes      = 3000
	prepShapesSmoke = 160
	// churnRate is the cold-churn arrival rate. Each miss schedules a
	// tier-2 search of about 2 ms on average over N in 10..50, so the
	// background upgrades keep about one of two CPUs busy and their
	// backlog stays bounded. At lower rates the CPUs idle between
	// requests, and wake-up delays then made the latencies swing more;
	// at 350/s, p90 sat on the edge of the requests that wait for an
	// upgrade to free a CPU and spread 30% from run to run.
	churnRate      = 450.0
	churnRateSmoke = 100.0
	// churnRecur is the share of cold-churn requests that repeat one of
	// the churnRecent most recently introduced shapes.
	churnRecur  = 0.25
	churnRecent = 256
	// restarts is how many times set-up launches the daemon; setup_s is
	// the median launch.
	restarts      = 15
	restartsSmoke = 2
)

// servingRun is the state one serving workload builds and measures.
type servingRun struct {
	e       *env
	useWire bool
	// prep holds the shapes the daemon recovers at start, in their
	// generated numbering, with their tier-2 entries.
	prep    []*catalog.Query
	entries []*plancache.Entry
	dir     string // the prepared -cache-dir
	// reqs are the requests in send order, each a shape under a fresh
	// numbering; shape[i] is the base shape of request i and bodies[i]
	// its encoded form.
	reqs   []*catalog.Query
	shape  []*catalog.Query
	bodies [][]byte
	// ref maps a shape to the cost of its tier-2 plan.
	ref map[*catalog.Query]float64
}

// prepare generates the recovered shapes, computes their tier-2 plans
// and writes them as the snapshot of a fresh cache directory.
func (s *servingRun) prepare() error {
	n := pick(s.e, prepShapes, prepShapesSmoke)
	seen := make(map[fingerprint.Fingerprint]bool, n)
	for i := 0; len(s.prep) < n; i++ {
		q := genQuery(s.e.seed, streamPrep, uint64(i))
		fp, _ := fingerprint.Canonical(q)
		if !seen[fp] {
			seen[fp] = true
			s.prep = append(s.prep, q)
		}
	}
	s.entries = make([]*plancache.Entry, n)
	s.ref = make(map[*catalog.Query]float64, n)
	if err := parallel(n, s.e.procs, func(i int) (err error) {
		s.entries[i], err = tier2Entry(s.prep[i])
		return err
	}); err != nil {
		return err
	}
	for i, q := range s.prep {
		s.ref[q] = s.entries[i].Plan.TotalCost
	}
	s.dir = filepath.Join(s.e.work, "cache")
	return writeSnapshot(s.dir, s.entries)
}

// writeSnapshot makes dir a cache directory holding exactly entries.
func writeSnapshot(dir string, entries []*plancache.Entry) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, _, _, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		return err
	}
	return errors.Join(st.Snapshot(entries), st.Close())
}

// launch starts ljqd on the prepared directory several times and
// returns the last daemon, still running, with the median set-up time.
func (s *servingRun) launch() (*daemon, float64, error) {
	var setups []float64
	for {
		t0 := time.Now()
		d, err := startDaemon(s.e.ljqd, daemonArgs(s.dir))
		if err != nil {
			return nil, 0, err
		}
		setup, err := s.firstOp(d, t0)
		if err != nil {
			return nil, 0, errors.Join(err, d.stop())
		}
		setups = append(setups, setup)
		if len(setups) == pick(s.e, restarts, restartsSmoke) {
			return d, median(setups), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// firstOp sends a just-launched daemon its first request, a recovered
// shape, and returns the seconds from launch (t0) to the reply. It
// checks that every prepared plan was recovered.
func (s *servingRun) firstOp(d *daemon, t0 time.Time) (float64, error) {
	ses := newSession(d.addr, false)
	defer ses.close()
	r, err := ses.optimize(jsonBody(s.prep[0]))
	setup := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	if err := checkReply(s.prep[0], r); err != nil {
		return 0, err
	}
	st, err := ses.status()
	if err != nil {
		return 0, err
	}
	if st.Persist == nil || st.Persist.Recovery.Recovered != len(s.entries) {
		return 0, fmt.Errorf("daemon recovered %+v, want %d plans", st.Persist, len(s.entries))
	}
	return setup, nil
}

// run launches the daemon, drives the load and fills the end-to-end
// and load metrics, stopping the daemon before it computes them; with
// -trace 1 it then adds the per-layer metrics.
func (s *servingRun) run(cfg loadConfig) (*outcome, error) {
	d, setup, err := s.launch()
	if err != nil {
		return nil, err
	}
	sessions := make([]*session, s.e.procs)
	for i := range sessions {
		sessions[i] = newSession(d.addr, s.useWire)
	}
	cfg.check = func(i int, r *reply) error { return checkReply(s.reqs[i%len(s.reqs)], r) }
	cfg.body = func(i int) []byte { return s.bodies[i%len(s.bodies)] }
	lr, err := drive(d, sessions, cfg)
	for _, ses := range sessions {
		ses.close()
	}
	var rss float64
	if err == nil {
		rss, err = peakRSS(d.pid())
	}
	if err = errors.Join(err, d.stop()); err != nil {
		return nil, err
	}
	if err := s.references(lr); err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{"setup_s": setup, "rss_peak_mb": rss}}
	out.attempted, out.failed, out.invalid = loadMetrics(lr, s.e.procs,
		func(i int, r *reply) float64 {
			return searchCost(s.reqs[i%len(s.reqs)], r) / s.ref[s.shape[i%len(s.shape)]]
		},
		func(i int, r *reply) error { return recheckReply(s.reqs[i%len(s.reqs)], r) }, out.metrics)
	if s.e.trace {
		if err := s.traced(out.metrics); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// references computes the tier-2 cost of every shape a timed request
// used that set-up did not already price.
func (s *servingRun) references(lr *loadResult) error {
	var todo []*catalog.Query
	for _, smp := range lr.samples {
		if !smp.timed {
			continue
		}
		q := s.shape[smp.idx%len(s.shape)]
		if _, ok := s.ref[q]; !ok {
			s.ref[q] = 0
			todo = append(todo, q)
		}
	}
	costs := make([]float64, len(todo))
	if err := parallel(len(todo), s.e.procs, func(i int) error {
		e, err := tier2Entry(todo[i])
		if err == nil {
			costs[i] = e.Plan.TotalCost
		}
		return err
	}); err != nil {
		return err
	}
	for i, q := range todo {
		s.ref[q] = costs[i]
	}
	return nil
}

// runHotHits: ljqd restarts on a cache holding the recovered shapes;
// a closed loop of one session per CPU sends those shapes, each under
// a fresh numbering, as JSON. Every request is a cache hit.
func runHotHits(e *env) (*outcome, error) {
	s := &servingRun{e: e}
	if err := s.prepare(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(deriveSeed(uint64(e.seed), streamHotOrder)))
	for _, k := range rng.Perm(len(s.prep)) {
		q := renumber(s.prep[k], rng)
		s.reqs = append(s.reqs, q)
		s.shape = append(s.shape, s.prep[k])
		s.bodies = append(s.bodies, jsonBody(q))
	}
	return s.run(loadConfig{warm: e.warmup(), dur: e.seconds})
}

// runColdChurn: the same restart, then an open loop at a fixed rate
// over the binary wire. Most requests carry a shape never seen before;
// churnRecur of them repeat a recent one.
func runColdChurn(e *env) (*outcome, error) {
	s := &servingRun{e: e, useWire: true}
	if err := s.prepare(); err != nil {
		return nil, err
	}
	rate := pick(e, churnRate, churnRateSmoke)
	cfg := loadConfig{warm: e.warmup(), dur: e.seconds, rate: rate}
	cfg.count = int(rate*(cfg.warm+cfg.dur).Seconds()) + 1
	mix := rand.New(rand.NewSource(deriveSeed(uint64(e.seed), streamChurnMix)))
	var recent []*catalog.Query
	fresh := 0
	for i := 0; i < cfg.count; i++ {
		var base *catalog.Query
		if len(recent) > 0 && mix.Float64() < churnRecur {
			base = recent[mix.Intn(len(recent))]
		} else {
			base = genQuery(e.seed, streamChurnShapes, uint64(fresh))
			fresh++
			if len(recent) == churnRecent {
				recent = recent[1:]
			}
			recent = append(recent, base)
		}
		q := renumber(base, mix)
		s.reqs = append(s.reqs, q)
		s.shape = append(s.shape, base)
		s.bodies = append(s.bodies, wireBody(q))
	}
	return s.run(cfg)
}
