package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/cost"
	"joinopt/internal/fingerprint"
	"joinopt/internal/persist"
	"joinopt/internal/plan"
	"joinopt/internal/plancache"
	"joinopt/internal/qfile"
	"joinopt/internal/serve"
	"joinopt/internal/wire"
)

// The traced run replays a workload's inputs in this process and
// composes the pipeline from the modules' public functions, recording
// one span around each call into a layer. Spans stay in memory until
// the replay ends. Nothing inside the program is instrumented.

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span, -1 for the request root.
type span struct {
	layer      string
	start, end time.Duration // since the tracer's base
	parent     int32
	req        int32
}

// tracer collects spans. It is safe for concurrent use: the plan cache
// runs computes and admission hooks on its own goroutines. A tracer
// that is off records nothing, so the same replay code measures the
// untraced baseline.
type tracer struct {
	on    bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(layer string, parent, req int32) int32 {
	if !t.on {
		return -1
	}
	now := time.Since(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, start: now, parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	now := time.Since(t.base)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// selfTimes returns each layer's self time (span duration minus the
// part its children cover) and span count, and the summed self time of
// all spans, the request roots' own included: the replay's total work.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int, total time.Duration) {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self = make(map[string]time.Duration)
	count = make(map[string]int)
	for i, s := range spans {
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, reach := time.Duration(0), s.start
		for _, k := range ks {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.layer] += s.end - s.start - covered
		count[s.layer]++
		total += s.end - s.start - covered
	}
	return self, count, total
}

// runtimeSample reads the allocation and GC CPU counters.
func runtimeSample() (allocBytes, gcCPU float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64()
}

// replay replays n requests twice: through plain under a tracer that
// is off and through traced under one that is on. It alternates which
// goes first request by request, so host drift falls on both passes
// alike, and fills the per-layer metrics of the traced pass: each
// layer's share of the pass's total traced work and its span count,
// the tracing overhead (the traced pass's mean request time minus the
// untraced pass's), and the runtime's allocation and GC CPU over both.
func replay(n int, plain, traced func(i int32, tr *tracer) error, m map[string]float64) error {
	off := &tracer{}
	on := &tracer{on: true, base: time.Now()}
	var sums [2]time.Duration
	runtime.GC()
	a0, g0 := runtimeSample()
	c0 := selfCPU()
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			pass := (i + k) % 2 // 0: plain, 1: traced
			do, tr := plain, off
			if pass == 1 {
				do, tr = traced, on
			}
			t := time.Now()
			if err := do(int32(i), tr); err != nil {
				return fmt.Errorf("replay request %d: %w", i, err)
			}
			sums[pass] += time.Since(t)
		}
	}
	a1, g1 := runtimeSample()
	cpu := (selfCPU() - c0).Seconds()

	self, count, total := selfTimes(on.spans)
	for _, l := range traceLayers {
		m["share."+l] = share(float64(self[l]), float64(total))
		m["spans."+l] = float64(count[l])
	}
	m["trace.overhead_us"] = us(sums[1]-sums[0]) / float64(n)
	m["runtime.alloc_bytes_per_op"] = (a1 - a0) / float64(2*n)
	m["runtime.gc_cpu_share"] = share(g1-g0, cpu)
	return nil
}

// matrixTraced fills the per-layer metrics of the paper-matrix: each
// replayed op is one request whose only layer is core.
func matrixTraced(e *env, queries []*catalog.Query, ops []matrixOp, m map[string]float64) error {
	n := min(pick(e, 300, 30), len(ops))
	do := func(i int32, tr *tracer) error {
		op := ops[i]
		q := queries[op.query].Clone()
		root := tr.begin("request", -1, i)
		sp := tr.begin("core", root, i)
		_, _, err := runMatrixOp(q, op)
		tr.end(sp)
		tr.end(root)
		return err
	}
	if err := replay(n, do, do, m); err != nil {
		return err
	}

	var sample []*catalog.Query
	for qi := 0; qi < len(queries) && len(sample) < microQueries; qi++ {
		sample = append(sample, queries[qi])
	}
	var runs []func() int64
	for _, op := range ops[:min(len(ops), 90)] {
		op := op
		runs = append(runs, func() int64 {
			_, used, _ := runMatrixOp(queries[op.query].Clone(), op)
			return used
		})
	}
	if err := micro(e, sample, runs, m); err != nil {
		return err
	}
	// No daemon and no durable cache: nothing to time.
	for _, k := range []string{"serve.handler_us", "http.hop_us", "persist.recover_ms", "persist.compact_ms"} {
		m[k] = 0
	}
	return nil
}

// traced fills the per-layer metrics of a serving workload.
func (s *servingRun) traced(m map[string]float64) error {
	n := min(pick(s.e, 1000, 100), len(s.reqs))
	plain, closePlain, err := s.pipeline("plain")
	if err != nil {
		return err
	}
	traced, closeTraced, err := s.pipeline("traced")
	if err != nil {
		return errors.Join(err, closePlain())
	}
	err = replay(n, plain, traced, m)
	if err = errors.Join(err, closePlain(), closeTraced()); err != nil {
		return err
	}
	if err := s.loopback(n, m); err != nil {
		return err
	}
	if err := s.persistTimes(m); err != nil {
		return err
	}
	sample := s.reqs[:min(microQueries, len(s.reqs))]
	var runs []func() int64
	for _, q := range s.prep[:min(24, len(s.prep))] {
		_, _, cq := fingerprint.CanonicalQuery(q)
		g, _, err := greedyPlan(cq)
		if err != nil {
			return err
		}
		runs = append(runs, func() int64 {
			_, used, _ := upgrade(context.Background(), cq, g.Order())
			return used
		})
	}
	return micro(s.e, sample, runs, m)
}

// pipeline returns the pipeline ljqd runs for request i, composed
// in-process, and a function that closes its journal. The steps are
// decode, fingerprint.Canonical, plancache.Cache.GetOrCompute (whose
// compute relabels and plans greedily), serve.ResponseFromEntry and
// encode. A miss is then upgraded through core, as ljqd does in the
// background; the upgrade runs after the request's blocking path,
// under the same request. The cache is recovered from the prepared
// snapshot into a directory of the pipeline's own name. Its admission
// hook journals each admitted plan and compacts every compactEvery
// appends, as persist.Manager does, inside a persist span. In ljqd the
// journal work also runs off the blocking path; the pipeline waits for
// it, so no two requests overlap.
func (s *servingRun) pipeline(name string) (func(i int32, t *tracer) error, func() error, error) {
	dir := filepath.Join(s.e.work, name)
	if err := writeSnapshot(dir, s.entries); err != nil {
		return nil, nil, err
	}
	store, ents, rst, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	cache := newCache()
	persist.NewManager(store, cache, compactEvery).Recover(ents, rst)

	var tr atomic.Pointer[tracer]
	var hookParent, hookReq atomic.Int32
	var appended atomic.Int64
	var hookErr atomic.Pointer[error]
	cache.SetHooks(plancache.Hooks{OnAdmit: func(e *plancache.Entry) {
		t := tr.Load()
		sp := t.begin("persist", hookParent.Load(), hookReq.Load())
		since, err := store.Append(e)
		if err == nil && since >= compactEvery {
			err = store.Snapshot(cache.Dump())
		}
		t.end(sp)
		if err != nil {
			hookErr.Store(&err)
		}
		appended.Add(1)
	}})
	var want int64
	awaitHooks := func() {
		for appended.Load() < want {
			runtime.Gosched()
		}
	}
	ctx := context.Background()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	decodeLayer := "qfile"
	if s.useWire {
		decodeLayer = "wire"
	}

	return func(i int32, t *tracer) error {
		tr.Store(t)
		hookReq.Store(i)
		root := t.begin("request", -1, i)
		sp := t.begin(decodeLayer, root, i)
		var q *catalog.Query
		var err error
		if s.useWire {
			q, err = wire.DecodeQuery(s.bodies[i])
		} else {
			q, err = qfile.ReadLimit(bytes.NewReader(s.bodies[i]), 1<<20)
		}
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.begin("fingerprint", root, i)
		fp, order := fingerprint.Canonical(q)
		t.end(sp)

		var cq *catalog.Query
		var tier1 *plan.Plan
		cacheSpan := t.begin("plancache", root, i)
		hookParent.Store(root)
		entry, hit, _, err := cache.GetOrCompute(ctx, fp, func(context.Context) (*plancache.Entry, error) {
			sp := t.begin("fingerprint", cacheSpan, i)
			cq = fingerprint.Relabel(q, order)
			t.end(sp)
			sp = t.begin("greedy", cacheSpan, i)
			pl, work, err := greedyPlan(cq)
			t.end(sp)
			tier1 = pl
			return &plancache.Entry{Fingerprint: fp, Plan: pl, BudgetUsed: work, Tier: plancache.TierGreedy}, err
		})
		t.end(cacheSpan)
		if err == nil && !hit {
			if got, ok := cache.Peek(fp); ok && got == entry {
				want++
				awaitHooks()
			}
		}
		if err != nil {
			return err
		}

		sp = t.begin("serve", root, i)
		resp := serve.ResponseFromEntry(q, order, fp, entry)
		t.end(sp)
		if s.useWire {
			sp = t.begin("wire", root, i)
			buf.Reset()
			buf.Write(wire.AppendResponse(buf.AvailableBuffer(), wireResponse(resp)))
		} else {
			sp = t.begin("serve", root, i)
			buf.Reset()
			err = enc.Encode(resp)
		}
		t.end(sp)
		t.end(root)
		if err != nil {
			return err
		}
		if err := checkOrder(q, resp.Order, resp.Names); err != nil {
			return err
		}
		if tier1 == nil {
			return nil
		}

		up := t.begin("core", root, i)
		hookParent.Store(up)
		pl, used, err := upgrade(ctx, cq, tier1.Order())
		if err == nil && cache.Put(&plancache.Entry{Fingerprint: fp, Plan: pl, BudgetUsed: used, Tier: plancache.TierFull}) {
			want++
			awaitHooks()
		}
		t.end(up)
		if p := hookErr.Load(); p != nil {
			return *p
		}
		return err
	}, store.Close, nil
}

// wireResponse converts a response for the binary codec, as ljqd does.
func wireResponse(r *serve.OptimizeResponse) *wire.Response {
	return &wire.Response{
		Fingerprint: r.Fingerprint, CacheHit: r.CacheHit, Coalesced: r.Coalesced,
		Degraded: r.Degraded, DegradeReason: r.DegradeReason, BudgetUsed: r.BudgetUsed,
		TotalCost: r.TotalCost, Order: r.Order, Names: r.Names, Tier: r.Tier, Explain: r.Explain,
	}
}

// loopback serves the first n requests one at a time through
// serve.Server.Handler() on a loopback listener, configured like ljqd
// and recovered from the prepared snapshot. Each request gets a client
// span (the round trip) and a handler span; the hop is their
// difference.
func (s *servingRun) loopback(n int, m map[string]float64) error {
	dir := filepath.Join(s.e.work, "loopback")
	if err := writeSnapshot(dir, s.entries); err != nil {
		return err
	}
	store, ents, rst, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		return err
	}
	cache := newCache()
	mgr := persist.NewManager(store, cache, compactEvery)
	mgr.Recover(ents, rst)
	mgr.Bind()
	srv := serve.New(serve.Config{
		Method: daemonMethod, Model: cost.NewMemoryModel(), TCoeff: tCoeff, Seed: daemonSeed,
		CacheHandle: cache, Persist: mgr, Tiered: true,
	})
	h := srv.Handler()
	handled := make(chan time.Duration, 1)
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		handled <- time.Since(t)
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return errors.Join(err, mgr.Close())
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	ses := newSession(ln.Addr().String(), s.useWire)

	var handler, hop []float64
	var reqErr error
	for i := 0; i < n && reqErr == nil; i++ {
		t := time.Now()
		r, err := ses.optimize(s.bodies[i])
		rt := time.Since(t)
		if err == nil {
			err = checkReply(s.reqs[i], r)
		}
		select {
		case d := <-handled:
			handler = append(handler, us(d))
			hop = append(hop, us(rt-d))
		case <-time.After(10 * time.Second):
			err = errors.Join(err, errors.New("loopback handler did not finish"))
		}
		reqErr = err
	}
	ses.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = hs.Shutdown(ctx)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	srv.StopUpgrades()
	if err = errors.Join(reqErr, err, mgr.Close()); err != nil {
		return fmt.Errorf("loopback: %w", err)
	}
	m["serve.handler_us"] = median(handler)
	m["http.hop_us"] = median(hop)
	return nil
}

// persistTimes times recovery of the prepared cache (persist.Open plus
// Manager.Recover, as ljqd starts) and a compacting snapshot of it.
func (s *servingRun) persistTimes(m map[string]float64) error {
	dir := filepath.Join(s.e.work, "recover")
	if err := writeSnapshot(dir, s.entries); err != nil {
		return err
	}
	var recov, compact []float64
	for k := 0; k < 3; k++ {
		t := time.Now()
		store, ents, rst, err := persist.Open(persist.Options{Dir: dir})
		if err != nil {
			return err
		}
		cache := newCache()
		persist.NewManager(store, cache, compactEvery).Recover(ents, rst)
		recov = append(recov, ms(time.Since(t)))
		t = time.Now()
		err = store.Snapshot(cache.Dump())
		compact = append(compact, ms(time.Since(t)))
		if err = errors.Join(err, store.Close()); err != nil {
			return err
		}
	}
	m["persist.recover_ms"] = median(recov)
	m["persist.compact_ms"] = median(compact)
	return nil
}
