package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// TestSpecMatchesTables keeps BENCHMARK.json and the metric tables the
// program prints from in step.
func TestSpecMatchesTables(t *testing.T) {
	spec := readSpec(t)
	for _, c := range []struct {
		kind string
		spec []metricSpec
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					c.kind, i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{layer: "request", start: 0, end: ms(10), parent: -1},
		{layer: "qfile", start: ms(1), end: ms(3), parent: 0},
		{layer: "plancache", start: ms(3), end: ms(8), parent: 0},
		{layer: "greedy", start: ms(4), end: ms(6), parent: 2},
		{layer: "persist", start: ms(7), end: ms(12), parent: 0}, // runs past its parent
	}
	self, count, total := selfTimes(spans)
	want := map[string]time.Duration{"request": ms(1), "qfile": ms(2), "plancache": ms(3), "greedy": ms(2), "persist": ms(5)}
	for l, w := range want {
		if self[l] != w || count[l] != 1 {
			t.Errorf("%s: self %v count %d, want %v and 1", l, self[l], count[l], w)
		}
	}
	if total != ms(13) {
		t.Errorf("total %v, want 13ms", total)
	}
}

// TestSmoke runs every workload of the program briefly, those
// BENCHMARK.json leaves out included, untraced and traced, against a
// freshly built ljqd: every metric prints with its unit, every output
// is correct, and the traced runs keep the layers apart.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ljqd and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ljqd")
	if out, err := exec.Command("go", "build", "-o", bin, "joinopt/cmd/ljqd").CombinedOutput(); err != nil {
		t.Fatalf("build ljqd: %v\n%s", err, out)
	}
	spec := readSpec(t)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				res, err := run([]string{"-workload", name, "-seed", "7", "-seconds", "1",
					"-trace", trace, "-smoke", "-ljqd", bin, "-workdir", dir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, got, d.Unit)
					}
				}
				v := func(name string) float64 { return res.Metrics[name].Value }
				if trace == "0" && v("ok_share") != 1 {
					t.Errorf("ok_share %v, want 1", v("ok_share"))
				}
				if trace == "1" {
					var absent []string
					switch name {
					case "hot-hits":
						absent = []string{"core", "greedy"}
					case "paper-matrix":
						absent = []string{"serve", "fingerprint", "plancache", "persist"}
					}
					for _, l := range absent {
						if v("spans."+l) != 0 {
							t.Errorf("%s has %v %s spans, want none", name, v("spans."+l), l)
						}
					}
				}
			})
		}
	}
}
