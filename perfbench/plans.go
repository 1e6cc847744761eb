package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"joinopt/internal/catalog"
	"joinopt/internal/core"
	"joinopt/internal/cost"
	"joinopt/internal/estimate"
	"joinopt/internal/fingerprint"
	"joinopt/internal/greedy"
	"joinopt/internal/joingraph"
	"joinopt/internal/plan"
	"joinopt/internal/plancache"
	"joinopt/internal/qfile"
	"joinopt/internal/wire"
	"joinopt/internal/workload"
)

// The daemon configuration the serving workloads run ljqd with. The
// benchmark passes every value explicitly, so reference plans it
// computes in-process match what the daemon converges to.
const (
	daemonSeed    = 1
	tCoeff        = 9
	cacheCapacity = 4096
	cacheShards   = 16
	compactEvery  = 256
	// minJoins and maxJoins bound the join count N of every generated
	// serving query: the paper's default range.
	minJoins = 10
	maxJoins = 50
)

var daemonMethod = core.IAI

func daemonArgs(cacheDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-method", daemonMethod.String(),
		"-cost", "memory",
		"-t", fmt.Sprint(tCoeff),
		"-seed", fmt.Sprint(daemonSeed),
		"-cache-size", fmt.Sprint(cacheCapacity),
		"-cache-shards", fmt.Sprint(cacheShards),
		"-cache-compact-every", fmt.Sprint(compactEvery),
		"-cache-dir", cacheDir,
	}
}

// newCache builds an in-process cache configured like the daemon's.
func newCache() *plancache.Cache {
	return plancache.New(plancache.Config{Capacity: cacheCapacity, Shards: cacheShards, CostAware: true})
}

// genQuery generates query i of a stream: N uniform over
// [minJoins, maxJoins], drawn from the §5 default benchmark.
func genQuery(seed int64, stream, i uint64) *catalog.Query {
	rng := rand.New(rand.NewSource(deriveSeed(uint64(seed), stream, i)))
	n := minJoins + rng.Intn(maxJoins-minJoins+1)
	q := workload.Default().Generate(n, rng)
	q.Normalize()
	return q
}

// renumber returns q under a random relation numbering (names kept).
func renumber(q *catalog.Query, rng *rand.Rand) *catalog.Query {
	order := make([]catalog.RelID, len(q.Relations))
	for i, p := range rng.Perm(len(order)) {
		order[i] = catalog.RelID(p)
	}
	return fingerprint.Relabel(q, order)
}

func jsonBody(q *catalog.Query) []byte {
	var b bytes.Buffer
	if err := qfile.Write(&b, q); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	return b.Bytes()
}

func wireBody(q *catalog.Query) []byte { return wire.EncodeQuery(q) }

// greedyPlan is ljqd's tier-1 plan for a canonical query.
func greedyPlan(cq *catalog.Query) (*plan.Plan, int64, error) {
	p, err := greedy.New(cq.Clone(), cost.NewMemoryModel())
	if err != nil {
		return nil, 0, err
	}
	res := p.Plan()
	return res.ToPlan(), res.Work, nil
}

// upgrade is ljqd's background tier-2 search for a canonical query,
// warm-started from the tier-1 order.
func upgrade(ctx context.Context, cq *catalog.Query, incumbent plan.Perm) (*plan.Plan, int64, error) {
	budget := cost.NewBudget(cost.UnitsFor(tCoeff, len(cq.Relations)-1))
	opt, err := core.NewOptimizer(cq.Clone(), cost.NewMemoryModel(), budget,
		rand.New(rand.NewSource(daemonSeed)), core.Options{Incumbent: incumbent})
	if err != nil {
		return nil, 0, err
	}
	pl, err := opt.RunContext(ctx, daemonMethod)
	if err != nil {
		return nil, 0, err
	}
	return pl, budget.Used(), nil
}

// tier2Entry computes the cache entry ljqd converges to for q.
func tier2Entry(q *catalog.Query) (*plancache.Entry, error) {
	fp, _, cq := fingerprint.CanonicalQuery(q)
	g, _, err := greedyPlan(cq)
	if err != nil {
		return nil, err
	}
	pl, used, err := upgrade(context.Background(), cq, g.Order())
	if err != nil {
		return nil, err
	}
	return &plancache.Entry{Fingerprint: fp, Plan: pl, BudgetUsed: used, Tier: plancache.TierFull}, nil
}

// parallel runs f(0..n-1) on at most workers goroutines and returns the
// first error.
func parallel(n, workers int, f func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// newEvaluator prices plans of q with an unlimited budget. static
// selects the static-selectivity estimator, the one the greedy tier-1
// planner prices with; the search prices with the dynamic one.
func newEvaluator(q *catalog.Query, static bool) *plan.Evaluator {
	qc := q.Clone()
	qc.Normalize()
	st := estimate.NewStats(qc, joingraph.New(qc))
	if static {
		st.UseStaticSelectivity()
	}
	return plan.NewEvaluator(st, cost.NewMemoryModel(), cost.Unlimited())
}

func toPerm(order []int) plan.Perm {
	perm := make(plan.Perm, len(order))
	for i, x := range order {
		perm[i] = catalog.RelID(x)
	}
	return perm
}

// searchCost prices a reply's order for q under the estimator the
// tier-2 search uses, so plans of both tiers compare with the
// reference. A tier-2 reply already reports that cost.
func searchCost(q *catalog.Query, r *reply) float64 {
	if r.Tier == 2 {
		return r.TotalCost
	}
	return newEvaluator(q, false).Cost(toPerm(r.Order))
}

// sameCost reports whether a recomputed cost matches a reported one.
// Relabeling can reorder a float product, so allow rounding error.
func sameCost(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// checkOrder checks that order is a permutation of q's relations and
// that names, when given, name them.
func checkOrder(q *catalog.Query, order []int, names []string) error {
	n := len(q.Relations)
	if len(order) != n {
		return fmt.Errorf("order has %d relations, query %d", len(order), n)
	}
	if names != nil && len(names) != n {
		return fmt.Errorf("names has %d entries, query %d relations", len(names), n)
	}
	seen := make([]bool, n)
	for i, r := range order {
		if r < 0 || r >= n || seen[r] {
			return fmt.Errorf("order %v is not a permutation", order)
		}
		seen[r] = true
		if names != nil && names[i] != q.RelationName(catalog.RelID(r)) {
			return fmt.Errorf("names[%d] = %q, relation %d is %q", i, names[i], r, q.RelationName(catalog.RelID(r)))
		}
	}
	return nil
}

// reply is the part of an /optimize response the benchmark checks.
type reply struct {
	TotalCost float64  `json:"totalCost"`
	Order     []int    `json:"order"`
	Names     []string `json:"names"`
	Tier      int      `json:"tier"`
	CacheHit  bool     `json:"cacheHit"`
}

// checkReply checks a daemon response for the request query q.
func checkReply(q *catalog.Query, r *reply) error {
	if err := checkOrder(q, r.Order, r.Names); err != nil {
		return err
	}
	if r.Tier != 1 && r.Tier != 2 {
		return fmt.Errorf("tier %d", r.Tier)
	}
	if math.IsNaN(r.TotalCost) || math.IsInf(r.TotalCost, 0) || r.TotalCost < 0 {
		return fmt.Errorf("cost %v", r.TotalCost)
	}
	return nil
}

// recheckReply re-prices a response's order for q with plan.Evaluator,
// under the estimator of the tier that produced it. The generated
// queries are connected, so a plan is one component.
func recheckReply(q *catalog.Query, r *reply) error {
	ev := newEvaluator(q, r.Tier == 1)
	perm := toPerm(r.Order)
	if !ev.Valid(perm) {
		return fmt.Errorf("order %v needs a cross product", r.Order)
	}
	if c := ev.Cost(perm); !sameCost(c, r.TotalCost) {
		return fmt.Errorf("reported cost %v, recomputed %v", r.TotalCost, c)
	}
	return nil
}

// checkPlan checks an optimizer plan for the query ev prices: a
// permutation of all relations, every component valid, and component
// and total costs that re-price to the reported ones.
func checkPlan(ev *plan.Evaluator, q *catalog.Query, pl *plan.Plan) error {
	order := pl.Order()
	ints := make([]int, len(order))
	for i, r := range order {
		ints[i] = int(r)
	}
	if err := checkOrder(q, ints, nil); err != nil {
		return err
	}
	comps := make([]plan.Result, len(pl.Components))
	for i, c := range pl.Components {
		if !ev.Valid(c.Perm) {
			return fmt.Errorf("component %d order %v is invalid", i, c.Perm)
		}
		comps[i] = plan.Result{Perm: c.Perm, Cost: ev.Cost(c.Perm)}
		if !sameCost(comps[i].Cost, c.Cost) {
			return fmt.Errorf("component %d cost %v, recomputed %v", i, c.Cost, comps[i].Cost)
		}
	}
	if total := plan.Assemble(ev, comps).TotalCost; !sameCost(total, pl.TotalCost) {
		return fmt.Errorf("total cost %v, recomputed %v", pl.TotalCost, total)
	}
	return nil
}
