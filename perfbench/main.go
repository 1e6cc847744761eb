// Command perfbench is the repository benchmark. It runs one named
// workload against the optimizer and the ljqd daemon, checks every plan
// it gets back, and prints one JSON result line:
//
//	perfbench -ljqd <path> -workload paper-matrix|hot-hits|cold-churn \
//	          -seed <n> -seconds <s> -trace 0|1 [-smoke]
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// it holds the per-layer metrics. run.sh builds ljqd and this program
// from source and passes the flags through. README.md describes the
// workloads, the metrics and how steady they are.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a -trace 0 run prints, for every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"ok_share", "ratio"},
	{"cost_ratio_gm", "ratio"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MiB"},
}

// traceLayers are the span layers of the traced replay, named after
// modules. Each request also has a root span of the benchmark's own.
var traceLayers = []string{"qfile", "wire", "fingerprint", "plancache", "greedy", "core", "persist", "serve"}

// perLayer lists the metrics a -trace 1 run prints, for every workload.
// A layer the workload does not reach reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"plan.cost_ns", "ns"},
		{"plan.valid_suffix_ns", "ns"},
		{"search.neighbor_ns", "ns"},
		{"core.search_ms", "ms"},
		{"core.units_per_ms", "units/ms"},
		{"core.units_per_search", "units"},
		{"qfile.decode_us", "us"},
		{"qfile.decode_allocs", "allocs"},
		{"fingerprint.canonical_us", "us"},
		{"fingerprint.canonical_allocs", "allocs"},
		{"fingerprint.relabel_us", "us"},
		{"plancache.lookup_us", "us"},
		{"plancache.lookup_allocs", "allocs"},
		{"serve.response_us", "us"},
		{"serve.response_allocs", "allocs"},
		{"serve.encode_json_us", "us"},
		{"serve.encode_json_allocs", "allocs"},
		{"serve.handler_us", "us"},
		{"http.hop_us", "us"},
		{"wire.decode_us", "us"},
		{"wire.encode_us", "us"},
		{"greedy.plan_us", "us"},
		{"plancache.hit_share", "ratio"},
		{"plancache.coalesced_share", "ratio"},
		{"plancache.evictions_per_kop", "count"},
		{"tier.upgrades_completed_share", "ratio"},
		{"tier.upgrades_dropped", "count"},
		{"tier.tier2_served_share", "ratio"},
		{"persist.append_us", "us"},
		{"persist.compact_ms", "ms"},
		{"persist.appends_per_op", "count"},
		{"persist.recover_ms", "ms"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.gc_cpu_share", "ratio"},
		{"load.cpu_share", "ratio"},
		{"load.lateness_p99_ms", "ms"},
		{"load.lat_p99_ms", "ms"},
		{"load.lat_p999_ms", "ms"},
		{"trace.overhead_us", "us"},
	}
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"share." + l, "ratio"}, metricDef{"spans." + l, "count"})
	}
	return defs
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"paper-matrix": runPaperMatrix,
	"hot-hits":     runHotHits,
	"cold-churn":   runColdChurn,
}

// env is what a workload runner gets: the parsed flags plus the
// temporary directory it owns.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	smoke   bool
	ljqd    string
	work    string // temporary directory, removed when the run ends
	procs   int
}

// pick returns full, or smoke under -smoke.
func pick[T any](e *env, full, smoke T) T {
	if e.smoke {
		return smoke
	}
	return full
}

// warmup is how long load runs before the timed window opens, so
// caches fill and lazy set-up finishes first.
func (e *env) warmup() time.Duration { return pick(e, time.Second, 200*time.Millisecond) }

// outcome is a workload's result before printing.
type outcome struct {
	attempted, failed int64
	// invalid counts outputs that failed a correctness check; they are
	// also counted in failed.
	invalid int64
	metrics map[string]float64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	res, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run parses args, runs the workload and assembles the result line.
func run(args []string) (*jsonResult, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "paper-matrix, hot-hits or cold-churn")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	smoke := fs.Bool("smoke", false, "small inputs, for a run of a few seconds")
	ljqd := fs.String("ljqd", "", "path to the ljqd binary under test")
	workdir := fs.String("workdir", ".bench_build", "directory for build outputs and temporary files")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return nil, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if *ljqd == "" {
		return nil, errors.New("-ljqd is required")
	}
	bin, err := filepath.Abs(*ljqd)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("ljqd binary: %w", err)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// One process drives the load: never more threads than CPUs.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		smoke:   *smoke,
		ljqd:    bin,
		work:    work,
		procs:   procs,
	}
	out, err := runner(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", *workload, err)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	res := &jsonResult{
		Correct:   out.invalid == 0 && out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", *workload, d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if out.invalid > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d invalid outputs\n", *workload, out.invalid)
	}
	return res, nil
}
