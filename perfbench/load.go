package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"joinopt/internal/serve"
)

// loadConfig describes one load phase against a daemon.
type loadConfig struct {
	warm, dur time.Duration
	// rate is the open-loop arrival rate in requests per second; 0
	// selects a closed loop, one request in flight per session.
	rate float64
	// count bounds the open-loop request indices; body(i) must serve
	// every i < count. A closed loop calls body with ever larger i.
	count int
	body  func(i int) []byte
	// check validates the reply to request i.
	check func(i int, r *reply) error
}

// sample is one request of the load phase.
type sample struct {
	idx int
	// timed marks a request sent (closed loop) or due (open loop)
	// inside the timed window; done is when its reply arrived.
	timed bool
	done  time.Time
	// lat runs to the reply from the send (closed loop) or, under the
	// open loop, from when the request was due if its session was busy
	// then (see drive).
	lat time.Duration
	// late is how long after its due time the request was sent.
	late time.Duration
	r    *reply
	err  error
}

// loadResult is what a load phase measured.
type loadResult struct {
	samples       []sample
	slices        *slicer // the timed window, with the daemon's CPU time
	wall          time.Duration
	genCPU        time.Duration // this process, during the window
	before, after *serve.StatusResponse
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs a warm-up and then the timed window against d, one
// goroutine per session. Requests sent (closed loop) or due (open
// loop) inside the window are the timed samples. The daemon's CPU time
// and /statusz are read at the window's edges.
func drive(d *daemon, sessions []*session, cfg loadConfig) (*loadResult, error) {
	ctl := newSession(d.addr, false)
	defer ctl.close()
	t0 := time.Now()
	start := t0.Add(cfg.warm)
	end := start.Add(cfg.dur)
	var next atomic.Int64
	per := make([][]sample, len(sessions))
	var wg sync.WaitGroup
	for w, s := range sessions {
		wg.Add(1)
		go func(w int, s *session) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				taken := time.Now()
				due := taken
				if cfg.rate > 0 {
					due = t0.Add(time.Duration(float64(i) / cfg.rate * float64(time.Second)))
					if i >= cfg.count || !due.Before(end) {
						return
					}
					time.Sleep(time.Until(due))
				} else if !taken.Before(end) {
					return
				}
				sent := time.Now()
				// A request counts from its due time when its session was
				// still busy then, so a slow reply delays the next ones'
				// clocks too; from its send when the session was idle
				// and only the timer woke late.
				from := sent
				if !taken.Before(due) {
					from = due
				}
				r, err := s.optimize(cfg.body(i))
				done := time.Now()
				if err == nil {
					err = cfg.check(i, r)
				}
				per[w] = append(per[w], sample{idx: i, timed: !due.Before(start), done: done,
					lat: done.Sub(from), late: sent.Sub(due), r: r, err: err})
			}
		}(w, s)
	}

	res := &loadResult{slices: newSlicer(start, cfg.dur), wall: cfg.dur}
	var errs [3]error
	time.Sleep(time.Until(start))
	gen0 := selfCPU()
	res.before, errs[0] = ctl.status()
	errs[1] = res.slices.watch(func() (time.Duration, error) { return procCPU(d.pid()) })
	gen1 := selfCPU()
	res.after, errs[2] = ctl.status()
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	res.genCPU = gen1 - gen0
	for _, s := range per {
		res.samples = append(res.samples, s...)
	}
	return res, nil
}

// loadMetrics turns a load phase into metrics. Throughput counts the
// valid replies that arrived inside the window; the other metrics cover
// the timed samples. ratio(i, r) is the cost of reply r to request i
// over its reference cost; recheck re-prices the plan of request i. A
// failed request counts as slow as the whole window. It returns
// attempted, failed and invalid counts with the metrics.
func loadMetrics(lr *loadResult, procs int, ratio func(i int, r *reply) float64,
	recheck func(i int, r *reply) error, m map[string]float64) (attempted, failed, invalid int64) {
	var lats, lates, ratios []float64
	for k := range lr.samples {
		s := &lr.samples[k]
		if s.timed && s.err == nil && s.idx%recheckEvery == 0 {
			s.err = recheck(s.idx, s.r)
			if s.err != nil {
				invalid++
			}
		}
		lat := ms(s.lat)
		if s.err != nil {
			lat = ms(lr.wall)
		}
		lr.slices.add(s.done.Add(-s.lat), s.done, lat, s.err == nil)
		if !s.timed {
			continue
		}
		attempted++
		lats = append(lats, lat)
		if s.err != nil {
			failed++
			continue
		}
		lates = append(lates, ms(s.late))
		ratios = append(ratios, ratio(s.idx, s.r))
	}
	if failed > 0 {
		logFailures(lr.samples)
	}
	ok := float64(attempted - failed)
	lr.slices.metrics(m)
	m["ok_share"] = share(ok, float64(attempted))
	m["cost_ratio_gm"] = geomean(ratios)
	m["load.cpu_share"] = share(lr.genCPU.Seconds(), lr.wall.Seconds()*float64(procs))
	m["load.lateness_p99_ms"] = quantile(lates, 0.99)
	m["load.lat_p99_ms"] = quantile(lats, 0.99)
	m["load.lat_p999_ms"] = quantile(lats, 0.999)

	b, a := lr.before, lr.after
	hits := float64(a.Cache.Hits - b.Cache.Hits)
	lookups := hits + float64(a.Cache.Misses-b.Cache.Misses) + float64(a.Cache.Coalesced-b.Cache.Coalesced)
	m["plancache.hit_share"] = share(hits, lookups)
	m["plancache.coalesced_share"] = share(float64(a.Cache.Coalesced-b.Cache.Coalesced), lookups)
	m["plancache.evictions_per_kop"] = share(1000*float64(a.Cache.Evictions-b.Cache.Evictions), float64(attempted))
	m["tier.upgrades_completed_share"] = share(float64(a.Tiers.UpgradesCompleted-b.Tiers.UpgradesCompleted),
		float64(a.Tiers.UpgradesStarted-b.Tiers.UpgradesStarted))
	m["tier.upgrades_dropped"] = float64(a.Tiers.UpgradesDropped - b.Tiers.UpgradesDropped)
	m["tier.tier2_served_share"] = 1 - share(float64(a.Tiers.Tier1Served-b.Tiers.Tier1Served), lookups)
	if a.Persist != nil && b.Persist != nil {
		m["persist.appends_per_op"] = share(float64(a.Persist.Appends-b.Persist.Appends), float64(attempted))
	}
	return attempted, failed, invalid
}

// logFailures prints the first few failed requests to stderr.
func logFailures(samples []sample) {
	n := 0
	for _, s := range samples {
		if s.timed && s.err != nil && n < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", s.idx, s.err)
			n++
		}
	}
}

// recheckEvery picks the deterministic sample of daemon replies whose
// cost is recomputed: every request index divisible by it.
const recheckEvery = 16
