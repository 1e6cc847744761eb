package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/catalog"
	"joinopt/internal/core"
	"joinopt/internal/cost"
	"joinopt/internal/plan"
	"joinopt/internal/workload"
)

// The paper-matrix follows the Figure 4 protocol: the §5 default
// benchmark, the nine methods, N = 10..50 and the memory model, each
// run at 9N². matrixQueries queries per N make one pass over the matrix
// about twelve seconds of work; the timed phase cycles through it. Fewer
// queries let cost_ratio_gm swing with the seed.
//
// One worker runs the ops. The in-process batch then times the optimizer
// alone while the second CPU absorbs the Go runtime's GC; with two
// workers, peak RSS and the timings spread twice as wide from run to
// run on a two-CPU host.
const (
	matrixQueries      = 120
	matrixQueriesSmoke = 1
	matrixWorkers      = 1
)

var (
	matrixNs      = []int{10, 20, 30, 40, 50}
	matrixNsSmoke = []int{10, 20}
)

// matrixOp is one optimizer run of the matrix.
type matrixOp struct {
	query  int
	method core.Method
	seed   int64
}

// matrixInputs generates the matrix queries and prepares an optimizer
// for each (validation, normalization, join graph, statistics): the
// batch's set-up.
func matrixInputs(e *env) ([]*catalog.Query, error) {
	var qs []*catalog.Query
	for qi := 0; qi < pick(e, matrixQueries, matrixQueriesSmoke); qi++ {
		for _, n := range pick(e, matrixNs, matrixNsSmoke) {
			rng := rand.New(rand.NewSource(deriveSeed(uint64(e.seed), streamMatrix, uint64(n), uint64(qi))))
			q := workload.Default().Generate(n, rng)
			if _, err := core.NewOptimizer(q, cost.NewMemoryModel(), cost.Unlimited(), nil, core.Options{}); err != nil {
				return nil, err
			}
			qs = append(qs, q)
		}
	}
	return qs, nil
}

// matrixOps lists every (query, method) run, query-major so that any
// prefix mixes all join counts and methods.
func matrixOps(e *env, queries []*catalog.Query) []matrixOp {
	var ops []matrixOp
	for qi := range queries {
		for _, m := range core.Methods {
			ops = append(ops, matrixOp{query: qi, method: m,
				seed: deriveSeed(uint64(e.seed), streamMatrixRun, uint64(qi), uint64(m))})
		}
	}
	return ops
}

// runMatrixOp is one op: one optimizer run at 9N².
func runMatrixOp(q *catalog.Query, op matrixOp) (*plan.Plan, int64, error) {
	budget := cost.NewBudget(cost.UnitsFor(tCoeff, len(q.Relations)-1))
	opt, err := core.NewOptimizer(q, cost.NewMemoryModel(), budget, rand.New(rand.NewSource(op.seed)), core.Options{})
	if err != nil {
		return nil, 0, err
	}
	pl, err := opt.RunContext(context.Background(), op.method)
	return pl, budget.Used(), err
}

// matrixSample is one op run during the load phase.
type matrixSample struct {
	k     int // op counter; the op is ops[k%len(ops)]
	done  time.Time
	lat   time.Duration
	timed bool
	cost  float64
	err   error
}

func runPaperMatrix(e *env) (*outcome, error) {
	var setups []float64
	var queries []*catalog.Query
	for k := 0; k < pick(e, restarts, restartsSmoke); k++ {
		t0 := time.Now()
		qs, err := matrixInputs(e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		queries = qs
	}
	ops := matrixOps(e, queries)

	warm := e.warmup()
	t0 := time.Now()
	start, end := t0.Add(warm), t0.Add(warm+e.seconds)
	var next atomic.Int64
	per := make([][]matrixSample, matrixWorkers)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			check := planChecker(queries)
			for {
				k := int(next.Add(1) - 1)
				op := ops[k%len(ops)]
				q := queries[op.query].Clone()
				t := time.Now()
				if !t.Before(end) {
					return
				}
				pl, _, err := runMatrixOp(q, op)
				done := time.Now()
				smp := matrixSample{k: k, done: done, lat: done.Sub(t), timed: !t.Before(start), err: err}
				if err == nil {
					smp.cost, smp.err = pl.TotalCost, check(op.query, pl)
				}
				per[w] = append(per[w], smp)
			}
		}(w)
	}
	sl := newSlicer(start, e.seconds)
	if err := sl.watch(func() (time.Duration, error) { return selfCPU(), nil }); err != nil {
		return nil, err
	}
	cpu := sl.cpu[numSlices] - sl.cpu[0]
	wg.Wait()
	var samples []matrixSample
	for _, s := range per {
		samples = append(samples, s...)
	}

	out := &outcome{metrics: map[string]float64{}}
	if err := matrixCheck(e, queries, ops, samples, out); err != nil {
		return nil, err
	}
	var lats []float64
	for _, s := range samples {
		lat := ms(s.lat)
		if s.err != nil {
			lat = ms(e.seconds)
		}
		sl.add(s.done.Add(-s.lat), s.done, lat, s.err == nil)
		if !s.timed {
			continue
		}
		out.attempted++
		lats = append(lats, lat)
		if s.err != nil {
			out.failed++
		}
	}
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	m := out.metrics
	ok := float64(out.attempted - out.failed)
	sl.metrics(m)
	m["ok_share"] = share(ok, float64(out.attempted))
	m["setup_s"] = median(setups)
	m["rss_peak_mb"] = rss
	m["load.cpu_share"] = share(cpu.Seconds(), e.seconds.Seconds()*float64(e.procs))
	m["load.lateness_p99_ms"] = 0 // closed loop: nothing is ever due
	m["load.lat_p99_ms"] = quantile(lats, 0.99)
	m["load.lat_p999_ms"] = quantile(lats, 0.999)
	// No daemon runs: the /statusz-derived metrics have nothing to count.
	for _, k := range []string{"plancache.hit_share", "plancache.coalesced_share", "plancache.evictions_per_kop",
		"tier.upgrades_completed_share", "tier.upgrades_dropped", "tier.tier2_served_share", "persist.appends_per_op"} {
		m[k] = 0
	}
	if e.trace {
		if err := matrixTraced(e, queries, ops, m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// planChecker returns a function that checks a plan of query qi: it
// re-prices to its reported cost with plan.Evaluator. Not safe for
// concurrent use.
func planChecker(queries []*catalog.Query) func(qi int, pl *plan.Plan) error {
	evals := make([]*plan.Evaluator, len(queries))
	return func(qi int, pl *plan.Plan) error {
		if evals[qi] == nil {
			evals[qi] = newEvaluator(queries[qi], false)
		}
		return checkPlan(evals[qi], queries[qi], pl)
	}
}

// matrixCheck checks that every repeat of an op returned the same cost
// as its first run, counting failures against the timed samples. Ops
// the phase never reached are run and checked afterwards, so
// cost_ratio_gm always covers the whole matrix: the geometric mean over
// (query, method) of the cost divided by the best cost any of the nine
// methods found for that query.
func matrixCheck(e *env, queries []*catalog.Query, ops []matrixOp, samples []matrixSample, out *outcome) error {
	first := make([]float64, len(ops))
	for i := range first {
		first[i] = math.NaN()
	}
	for i := range samples {
		s := &samples[i]
		j := s.k % len(ops)
		switch {
		case s.err != nil:
		case math.IsNaN(first[j]):
			first[j] = s.cost
		case s.cost != first[j]:
			s.err = fmt.Errorf("repeated with cost %v, first run %v", s.cost, first[j])
		}
		if s.err != nil {
			if s.timed {
				out.invalid++
			}
			fmt.Fprintf(os.Stderr, "perfbench: matrix op %d: %v\n", j, s.err)
		}
	}
	var missing []int
	for j := range ops {
		if math.IsNaN(first[j]) {
			missing = append(missing, j)
		}
	}
	check := planChecker(queries)
	for _, j := range missing {
		op := ops[j]
		pl, _, err := runMatrixOp(queries[op.query].Clone(), op)
		if err == nil {
			err = check(op.query, pl)
		}
		if err != nil {
			return fmt.Errorf("matrix op %d: %w", j, err)
		}
		first[j] = pl.TotalCost
	}
	best := make([]float64, len(queries))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for j, op := range ops {
		best[op.query] = math.Min(best[op.query], first[j])
	}
	ratios := make([]float64, len(ops))
	for j, op := range ops {
		if best[op.query] <= 0 {
			return errors.New("matrix query with a zero best cost")
		}
		ratios[j] = first[j] / best[op.query]
	}
	out.metrics["cost_ratio_gm"] = geomean(ratios)
	return nil
}
