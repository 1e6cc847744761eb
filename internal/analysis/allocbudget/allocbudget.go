// Package allocbudget enforces the hot-path allocation contract from
// two directions:
//
//   - Bench mode parses `go test -bench -benchmem` output and compares
//     each benchmark's allocs/op against the checked-in ceilings in
//     ALLOC_BUDGETS.json. A budgeted benchmark that did not run is a
//     violation too — a gate that silently skips is no gate.
//   - Escape mode parses `go build -gcflags=-m` diagnostics and
//     reports any value that escapes to the heap inside a function
//     annotated //ljqlint:hotpath. This catches what the hotalloc
//     analyzer cannot see syntactically (escape analysis is a compiler
//     decision) and what benchmarks may not cover (rare branches).
//
// cmd/allocgate is the thin CLI over both; CI runs them as the
// bench-allocs job.
package allocbudget

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"joinopt/internal/analysis/hotalloc"
)

// Budget is one benchmark's allocation ceiling.
type Budget struct {
	// Bench is the benchmark name as `go test` prints it, without the
	// trailing -GOMAXPROCS suffix (sub-benchmarks keep their /part).
	Bench string `json:"bench"`
	// Pkg is the package the benchmark lives in (documentation and the
	// CI invocation; the gate matches on Bench alone).
	Pkg string `json:"pkg"`
	// MaxAllocsPerOp is the enforced ceiling.
	MaxAllocsPerOp int64 `json:"max_allocs_per_op"`
	// MeasuredAllocsPerOp records the honest measurement the ceiling
	// was derived from (documentation only).
	MeasuredAllocsPerOp int64  `json:"measured_allocs_per_op"`
	Note                string `json:"note,omitempty"`
}

// File is the ALLOC_BUDGETS.json schema.
type File struct {
	Description string   `json:"description"`
	Regenerate  string   `json:"regenerate,omitempty"`
	Date        string   `json:"date,omitempty"`
	Budgets     []Budget `json:"budgets"`
}

// ParseBudgets decodes and validates a budgets file.
func ParseBudgets(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("allocbudget: parse budgets: %w", err)
	}
	if len(f.Budgets) == 0 {
		return nil, fmt.Errorf("allocbudget: budgets file lists no budgets")
	}
	seen := map[string]bool{}
	for _, b := range f.Budgets {
		if b.Bench == "" {
			return nil, fmt.Errorf("allocbudget: budget with empty bench name")
		}
		if seen[b.Bench] {
			return nil, fmt.Errorf("allocbudget: duplicate budget for %s", b.Bench)
		}
		seen[b.Bench] = true
		if b.MaxAllocsPerOp < 0 {
			return nil, fmt.Errorf("allocbudget: %s: negative ceiling", b.Bench)
		}
	}
	return &f, nil
}

// BenchResult is one parsed benchmark line.
type BenchResult struct {
	Name        string // normalized: -GOMAXPROCS suffix stripped
	NsPerOp     float64
	BytesPerOp  int64
	AllocsPerOp int64
	// HasAllocs records whether an allocs/op column was present —
	// without -benchmem (or b.ReportAllocs) there is nothing to gate.
	HasAllocs bool
}

// procSuffix matches the trailing -N GOMAXPROCS marker go test
// appends to benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// ParseBenchOutput scans `go test -bench` output for benchmark result
// lines. Unparseable lines (headers, PASS/ok trailers, logs) are
// skipped; a benchmark that ran more than once keeps its last result.
func ParseBenchOutput(r io.Reader) (map[string]BenchResult, error) {
	out := map[string]BenchResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		res, ok := parseBenchLine(sc.Text())
		if ok {
			out[res.Name] = res
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("allocbudget: read bench output: %w", err)
	}
	return out, nil
}

func parseBenchLine(line string) (BenchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return BenchResult{}, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return BenchResult{}, false // not an iteration count
	}
	res := BenchResult{Name: procSuffix.ReplaceAllString(fields[0], "")}
	// The rest is value/unit pairs: 1234 ns/op, 56 B/op, 7 allocs/op,
	// 197.34 MB/s, ...
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			res.NsPerOp, _ = strconv.ParseFloat(val, 64)
		case "B/op":
			res.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return BenchResult{}, false
			}
			res.AllocsPerOp = n
			res.HasAllocs = true
		}
	}
	return res, true
}

// Violation is one budget the bench run failed to honor.
type Violation struct {
	Bench string
	Max   int64
	Got   int64 // meaningful only when !Missing
	// Missing: the budgeted benchmark produced no allocs/op figure
	// (did not run, or ran without -benchmem).
	Missing bool
}

func (v Violation) String() string {
	if v.Missing {
		return fmt.Sprintf("%s: budgeted but absent from the bench output (did it run with -benchmem?)", v.Bench)
	}
	return fmt.Sprintf("%s: %d allocs/op exceeds budget %d", v.Bench, v.Got, v.Max)
}

// Check compares results against budgets. Benchmarks without a budget
// are ignored; budgets without a result are violations.
func Check(f *File, results map[string]BenchResult) []Violation {
	var out []Violation
	for _, b := range f.Budgets {
		res, ok := results[b.Bench]
		if !ok || !res.HasAllocs {
			out = append(out, Violation{Bench: b.Bench, Max: b.MaxAllocsPerOp, Missing: true})
			continue
		}
		if res.AllocsPerOp > b.MaxAllocsPerOp {
			out = append(out, Violation{Bench: b.Bench, Max: b.MaxAllocsPerOp, Got: res.AllocsPerOp})
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Escape mode.

// EscapeFinding is one heap allocation the compiler reports inside a
// //ljqlint:hotpath function.
type EscapeFinding struct {
	Pos     string // file:line:col as the compiler printed it
	Func    string // the hotpath function the site is inside
	Message string
}

func (e EscapeFinding) String() string {
	return fmt.Sprintf("%s: %s inside //ljqlint:hotpath func %s", e.Pos, e.Message, e.Func)
}

// diagLine matches `file.go:line:col: message` compiler diagnostics.
var diagLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// heapDiag reports whether a -gcflags=-m message denotes a heap
// allocation (as opposed to "does not escape" / inlining chatter).
func heapDiag(msg string) bool {
	return strings.Contains(msg, "escapes to heap") ||
		strings.Contains(msg, "moved to heap")
}

// CheckEscapes reads `go build -gcflags=-m` stderr and reports every
// heap-allocation diagnostic that lands inside a hotpath function.
// Paths in the diagnostics are resolved relative to root (the
// directory the build ran in). A site whose source line carries an
// inline `//ljqlint:allow hotalloc` directive is suppressed, matching
// the analyzer's suppression story.
func CheckEscapes(diagnostics io.Reader, root string) ([]EscapeFinding, error) {
	type site struct {
		pos, msg string
		line     int
	}
	byFile := map[string][]site{}
	sc := bufio.NewScanner(diagnostics)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := diagLine.FindStringSubmatch(sc.Text())
		if m == nil || !heapDiag(m[4]) {
			continue
		}
		line, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		byFile[m[1]] = append(byFile[m[1]], site{pos: m[1] + ":" + m[2] + ":" + m[3], msg: m[4], line: line})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("allocbudget: read diagnostics: %w", err)
	}

	var out []EscapeFinding
	for file, sites := range byFile {
		path := file
		if !filepath.IsAbs(path) {
			path = filepath.Join(root, file)
		}
		funcs, lines, err := hotpathRanges(path)
		if err != nil {
			// A diagnostic for a file outside the tree (or generated
			// and gone) cannot hide a hotpath violation in the tree.
			continue
		}
		for _, s := range sites {
			name, ok := enclosing(funcs, s.line)
			if !ok {
				continue
			}
			if lineAllows(lines, s.line) {
				continue
			}
			out = append(out, EscapeFinding{Pos: s.pos, Func: name, Message: s.msg})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// funcRange is a hotpath function's line span.
type funcRange struct {
	name       string
	start, end int
}

// hotpathRanges parses one source file and returns the line ranges of
// its //ljqlint:hotpath functions plus the file's source lines (for
// inline-allow checks).
func hotpathRanges(path string) ([]funcRange, []string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, nil, err
	}
	var ranges []funcRange
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !hotalloc.IsHotpath(fd) {
			continue
		}
		ranges = append(ranges, funcRange{
			name:  fd.Name.Name,
			start: fset.Position(fd.Pos()).Line,
			end:   fset.Position(fd.End()).Line,
		})
	}
	return ranges, strings.Split(string(src), "\n"), nil
}

func enclosing(ranges []funcRange, line int) (string, bool) {
	for _, r := range ranges {
		if line >= r.start && line <= r.end {
			return r.name, true
		}
	}
	return "", false
}

func lineAllows(lines []string, line int) bool {
	if line < 1 || line > len(lines) {
		return false
	}
	rest := lines[line-1]
	i := strings.Index(rest, "//ljqlint:allow")
	if i < 0 {
		return false
	}
	return strings.Contains(rest[i:], "hotalloc")
}
