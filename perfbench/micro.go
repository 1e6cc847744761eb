package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/fingerprint"
	"joinopt/internal/persist"
	"joinopt/internal/plan"
	"joinopt/internal/plancache"
	"joinopt/internal/qfile"
	"joinopt/internal/search"
	"joinopt/internal/serve"
	"joinopt/internal/wire"
)

// microQueries bounds the workload queries the micro-timings draw on.
const microQueries = 64

// perCall calls f over the inputs 0..n-1 round-robin until minDur has
// passed and returns the mean time per call.
func perCall(minDur time.Duration, n int, f func(i int)) time.Duration {
	calls := 0
	t0 := time.Now()
	for {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
		if el := time.Since(t0); el >= minDur {
			return el / time.Duration(calls)
		}
	}
}

// allocsPer returns the mean heap allocations per call of f over the
// inputs 0..n-1.
func allocsPer(n int, f func(i int)) float64 {
	i := 0
	return testing.AllocsPerRun(4*n, func() {
		f(i % n)
		i++
	})
}

// microInput is one workload query with everything the per-layer
// micro-timings feed the public calls.
type microInput struct {
	q          *catalog.Query
	json, wire []byte
	fp         fingerprint.Fingerprint
	order      []catalog.RelID
	cq         *catalog.Query
	entry      *plancache.Entry
	resp       *serve.OptimizeResponse
	wresp      *wire.Response
	ev         *plan.Evaluator
	space      *search.Space
	state      plan.Perm
	moved      []plan.Perm // state with two positions swapped
	from       []int       // the lower swapped position of moved[k]
}

func newMicroInput(q *catalog.Query, rng *rand.Rand) (*microInput, error) {
	in := &microInput{q: q, json: jsonBody(q), wire: wireBody(q)}
	in.fp, in.order = fingerprint.Canonical(q)
	in.cq = fingerprint.Relabel(q, in.order)
	pl, work, err := greedyPlan(in.cq)
	if err != nil {
		return nil, err
	}
	in.entry = &plancache.Entry{Fingerprint: in.fp, Plan: pl, BudgetUsed: work, Tier: plancache.TierGreedy}
	in.resp = serve.ResponseFromEntry(q, in.order, in.fp, in.entry)
	in.wresp = wireResponse(in.resp)
	if err := checkOrder(q, in.resp.Order, in.resp.Names); err != nil {
		return nil, err
	}
	if _, err := qfile.ReadLimit(bytes.NewReader(in.json), 1<<20); err != nil {
		return nil, err
	}
	if _, err := wire.DecodeQuery(in.wire); err != nil {
		return nil, err
	}
	in.ev = newEvaluator(q, false)
	rels := make([]catalog.RelID, len(q.Relations))
	for i := range rels {
		rels[i] = catalog.RelID(i)
	}
	in.space = search.NewSpace(in.ev, rels, rng)
	in.state = in.space.RandomState()
	for k := 0; k < 16; k++ {
		i, j := rng.Intn(len(rels)), rng.Intn(len(rels)-1)
		if j >= i {
			j++
		}
		i, j = min(i, j), max(i, j)
		p := in.state.Clone()
		p[i], p[j] = p[j], p[i]
		in.moved = append(in.moved, p)
		in.from = append(in.from, i)
	}
	return in, nil
}

// micro times the public calls of each layer on workload queries, and
// the given optimizer runs (each returns the work units it used).
func micro(e *env, queries []*catalog.Query, runs []func() int64, m map[string]float64) error {
	minDur := pick(e, 100*time.Millisecond, 10*time.Millisecond)
	rng := rand.New(rand.NewSource(deriveSeed(uint64(e.seed), 99)))
	in := make([]*microInput, len(queries))
	for i, q := range queries {
		var err error
		if in[i], err = newMicroInput(q, rng); err != nil {
			return err
		}
	}
	n := len(in)
	timeAndCount := func(name string, f func(i int)) {
		m[name+"_us"] = us(perCall(minDur, n, f))
		m[name+"_allocs"] = allocsPer(n, f)
	}
	timeAndCount("qfile.decode", func(i int) { _, _ = qfile.ReadLimit(bytes.NewReader(in[i].json), 1<<20) })
	timeAndCount("fingerprint.canonical", func(i int) { fingerprint.Canonical(in[i].q) })
	timeAndCount("serve.response", func(i int) { serve.ResponseFromEntry(in[i].q, in[i].order, in[i].fp, in[i].entry) })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ") // as ljqd encodes responses
	timeAndCount("serve.encode_json", func(i int) {
		buf.Reset()
		_ = enc.Encode(in[i].resp)
	})
	cache := newCache()
	for _, x := range in {
		cache.Put(x.entry)
	}
	ctx := context.Background()
	missed := func(context.Context) (*plancache.Entry, error) { return nil, errors.New("unexpected miss") }
	timeAndCount("plancache.lookup", func(i int) { _, _, _, _ = cache.GetOrCompute(ctx, in[i].fp, missed) })

	m["fingerprint.relabel_us"] = us(perCall(minDur, n, func(i int) { fingerprint.Relabel(in[i].q, in[i].order) }))
	m["greedy.plan_us"] = us(perCall(minDur, n, func(i int) { _, _, _ = greedyPlan(in[i].cq) }))
	m["wire.decode_us"] = us(perCall(minDur, n, func(i int) { _, _ = wire.DecodeQuery(in[i].wire) }))
	var wbuf []byte
	m["wire.encode_us"] = us(perCall(minDur, n, func(i int) { wbuf = wire.AppendResponse(wbuf[:0], in[i].wresp) }))

	m["plan.cost_ns"] = float64(perCall(minDur, n, func(i int) { in[i].ev.Cost(in[i].state) }))
	m["plan.valid_suffix_ns"] = float64(perCall(minDur, n*16, func(k int) {
		x := in[k/16]
		x.ev.ValidSuffixFrom(x.moved[k%16], x.from[k%16])
	}))
	m["search.neighbor_ns"] = float64(perCall(minDur, n, func(i int) { in[i].space.Neighbor(in[i].state) }))

	store, _, _, err := persist.Open(persist.Options{Dir: filepath.Join(e.work, "append")})
	if err != nil {
		return err
	}
	var appends []float64
	for _, x := range in {
		t := time.Now()
		_, err = store.Append(x.entry)
		appends = append(appends, us(time.Since(t)))
		if err != nil {
			break
		}
	}
	if err = errors.Join(err, store.Close()); err != nil {
		return err
	}
	m["persist.append_us"] = median(appends)

	var total time.Duration
	var units int64
	for _, run := range runs {
		t := time.Now()
		units += run()
		total += time.Since(t)
	}
	m["core.search_ms"] = ms(total) / float64(len(runs))
	m["core.units_per_ms"] = float64(units) / ms(total)
	m["core.units_per_search"] = float64(units) / float64(len(runs))
	return nil
}
