// Command reticle-benchjson keeps the per-commit trajectory of
// machine-independent benchmark counts: what the code does (solver
// steps, allocations), never how long the runner took. Wall clock and
// throughput belong to benchmark/reticle-load.
//
// Usage:
//
//	reticle-benchjson record
//	reticle-benchjson compare [-threshold 0.20] base.json [head.json]
//
// record runs every benchmark of the module once (`go test -bench=.
// -benchtime=1x -benchmem ./...`), three times over, and overwrites
// BENCH_baseline.json in the current directory, the one point the tree
// carries: each PR commits its own over its parent's. ns/op and MB/s are
// dropped on the way in; allocs/op keeps its minimum over the runs and
// B/op its median, and every other metric must read the same in all three.
// It also counts each package's non-test statements and declarations on
// the syntax tree (see countFile), so formatting cannot move the count,
// and takes the census of exported internal identifiers no production
// code refers to, with the module's import edges (see takeCensus).
//
// compare pairs the benchmarks of two such files by package and name —
// head defaults to BENCH_baseline.json — and fails when a gated metric
// (see gated) grew past the threshold on any benchmark present in both.
// When both files carry code counts it prints their per-package deltas
// too, and the census entries and import edges that moved; nothing gates
// on them. Exit status: 0 no regression, 1 regression
// or nothing to compare, 2 usage or unreadable input.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// gated is the one list that decides what blocks a merge: counts where
// lower is better and that repeat on any machine. Every other metric a
// benchmark reports (hit rates, resource counts, critical-ns) is recorded
// and never compared.
var gated = []string{"solver-steps", "shrink-probes", "steps-per-probe", "steps-per-edit", "allocs/op", "B/op"}

// Benchmark is one `Benchmark...` result line.
type Benchmark struct {
	Pkg     string             `json:"pkg,omitempty"`
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// baselineFile is where record writes and where compare finds its head.
const baselineFile = "BENCH_baseline.json"

// Baseline is one recorded run.
type Baseline struct {
	SHA         string `json:"sha,omitempty"`
	GeneratedAt string `json:"generated_at"`
	GoOS        string `json:"goos,omitempty"`
	GoArch      string `json:"goarch,omitempty"`
	CPU         string `json:"cpu,omitempty"`
	// GoMaxProcs is the -P suffix `go test` put on every benchmark name,
	// moved here by stripProcSuffix (0 when the run had none).
	GoMaxProcs int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Code is each package's count of non-test statements and
	// declarations, keyed by import path (see countModule).
	Code map[string]int `json:"code,omitempty"`
	// Census and Edges are the dead-export census of the internal
	// packages and the module's import edges (see takeCensus).
	Census *Census  `json:"census,omitempty"`
	Edges  []string `json:"edges,omitempty"`
}

// Parse converts `go test -bench` output into a Baseline. Lines that are
// neither context headers nor benchmark results (PASS, ok, test logs)
// are skipped.
func Parse(r io.Reader) (*Baseline, error) {
	base := &Baseline{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			base.GoOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			base.GoArch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			base.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, err := parseBenchLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		if b == nil {
			continue // a Benchmark-prefixed log line, not a result
		}
		b.Pkg = pkg
		base.Benchmarks = append(base.Benchmarks, *b)
	}
	return base, sc.Err()
}

// parseBenchLine parses one result line:
//
//	BenchmarkName[-P]   N   V unit   [V unit ...]
//
// keeping every unit but the two `go test` derives from wall clock.
// Returns (nil, nil) for lines that merely start with "Benchmark" but do
// not follow the result shape.
func parseBenchLine(line string) (*Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return nil, nil
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return nil, nil
	}
	b := &Benchmark{Name: fields[0]}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", fields[i], err)
		}
		unit := fields[i+1]
		if unit == "ns/op" || unit == "MB/s" {
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[unit] = val
	}
	return b, nil
}

// stripProcSuffix removes the "-P" GOMAXPROCS suffix from the benchmark
// names when every name carries the same one, and returns P (0 when it
// left the names alone). Baselines recorded on runners with different
// core counts then pair up by name in compare instead of sharing no
// benchmark at all.
func stripProcSuffix(bs []Benchmark) int {
	procs := 0
	for i, b := range bs {
		at := strings.LastIndexByte(b.Name, '-')
		if at < 0 {
			return 0
		}
		p, err := strconv.Atoi(b.Name[at+1:])
		if err != nil || p < 1 || (i > 0 && p != procs) {
			return 0
		}
		procs = p
	}
	for i := range bs {
		bs[i].Name = bs[i].Name[:strings.LastIndexByte(bs[i].Name, '-')]
	}
	return procs
}

// recordRuns is how many times record runs the benchmarks.
const recordRuns = 3

// noisy are the metrics a single run can read off, each with how record
// folds its runs. The garbage collector and the runtime's own allocations
// land in whichever iteration they happen to, so a run can read allocs/op
// high, and record keeps the minimum. B/op strays both ways (one run of
// BenchmarkRouterBatch read 314 kB where reruns read 341–345 kB, and a
// minimum kept that outlier), so record keeps the median.
var noisy = map[string]func([]float64) float64{"allocs/op": slices.Min[[]float64], "B/op": median}

// median is the middle of the values, the upper one of an even count.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s[len(s)/2]
}

// record runs the module's benchmarks recordRuns times, each run its own
// `go test` process, and writes the point for HEAD.
func record(stdout, stderr io.Writer) error {
	rev, err := exec.Command("git", "log", "-1", "--format=%H").Output()
	sha := strings.TrimSpace(string(rev))
	if err != nil || sha == "" {
		return fmt.Errorf("git log -1: %q, %v", rev, err)
	}
	runs := make([]*Baseline, recordRuns)
	for i := range runs {
		bench := exec.Command("go", "test", "-bench=.", "-benchtime=1x", "-benchmem", "-run=^$", "./...")
		bench.Stderr = stderr
		out, err := bench.Output()
		if err != nil {
			stderr.Write(out)
			return fmt.Errorf("go test -bench: %w", err)
		}
		if runs[i], err = Parse(strings.NewReader(string(out))); err != nil {
			return err
		}
		if len(runs[i].Benchmarks) == 0 {
			return fmt.Errorf("go test -bench printed no benchmark results")
		}
	}
	base, err := mergeRuns(runs)
	if err != nil {
		return err
	}
	if base.Code, err = countModule("."); err != nil {
		return err
	}
	if base.Census, base.Edges, err = takeCensus("."); err != nil {
		return err
	}
	base.SHA = sha
	base.GoMaxProcs = stripProcSuffix(base.Benchmarks)
	base.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(baselineFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "reticle-benchjson: wrote %d benchmarks, the code counts of %d packages, %d dead exports and %d import edges to %s\n",
		len(base.Benchmarks), len(base.Code), len(base.Census.Dead), len(base.Edges), baselineFile)
	return nil
}

// mergeRuns folds runs of the same benchmarks into the first: each noisy
// metric is folded as noisy says, and every other metric must read the
// same in every run. A benchmark or metric one run lacks fails it too.
func mergeRuns(runs []*Baseline) (*Baseline, error) {
	base := runs[0]
	for k, run := range runs[1:] {
		if len(run.Benchmarks) != len(base.Benchmarks) {
			return nil, fmt.Errorf("run %d reported %d benchmarks, run 1 %d", k+2, len(run.Benchmarks), len(base.Benchmarks))
		}
		for i, b := range run.Benchmarks {
			into := base.Benchmarks[i]
			if b.Pkg != into.Pkg || b.Name != into.Name || len(b.Metrics) != len(into.Metrics) {
				return nil, fmt.Errorf("run %d reported %s %s where run 1 reported %s %s with other metrics", k+2, b.Pkg, b.Name, into.Pkg, into.Name)
			}
			for metric, v := range b.Metrics {
				was, ok := into.Metrics[metric]
				switch {
				case !ok:
					return nil, fmt.Errorf("%s %s: run %d reported %s, run 1 did not", b.Pkg, b.Name, k+2, metric)
				case noisy[metric] != nil:
				case v != was:
					return nil, fmt.Errorf("%s %s: %s read %v in run 1 and %v in run %d", b.Pkg, b.Name, metric, was, v, k+2)
				}
			}
		}
	}
	for i, into := range base.Benchmarks {
		for metric := range into.Metrics {
			if fold := noisy[metric]; fold != nil {
				vs := make([]float64, len(runs))
				for k, run := range runs {
					vs[k] = run.Benchmarks[i].Metrics[metric]
				}
				into.Metrics[metric] = fold(vs)
			}
		}
	}
	return base, nil
}

// countModule counts the statements and declarations of every package of
// the module rooted at dir, keyed by import path: the files a build for
// this platform compiles, tests excluded.
func countModule(dir string) (map[string]int, error) {
	counts := map[string]int{}
	err := walkModule(dir, func(key string, pkg *build.Package) error {
		for _, f := range pkg.GoFiles {
			n, err := countFile(filepath.Join(pkg.Dir, f))
			if err != nil {
				return err
			}
			counts[key] += n
		}
		return nil
	})
	return counts, err
}

// walkModule calls fn with the import path and the build view of every
// package of the module rooted at dir. Nested modules, testdata and
// directories a go command ignores are not the module's.
func walkModule(dir string, fn func(importPath string, pkg *build.Package) error) error {
	mod, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return err
	}
	return filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != dir {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		pkg, err := build.ImportDir(p, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		return fn(path.Join(mod, filepath.ToSlash(rel)), pkg)
	})
}

// modulePath reads the module path off a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// countFile counts the statements and declarations of one Go file: every
// statement but a block or an empty one, every function, and every spec
// of a top-level const, var or type declaration; imports are not
// counted. It reads the syntax tree, so formatting cannot move it.
func countFile(name string) (int, error) {
	f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			n++
		case *ast.GenDecl:
			if d.Tok != token.IMPORT {
				n += len(d.Specs)
			}
		}
	}
	ast.Inspect(f, func(node ast.Node) bool {
		switch node.(type) {
		case *ast.BlockStmt, *ast.EmptyStmt:
		case ast.Stmt:
			n++
		}
		return true
	})
	return n, nil
}

// delta is one gated metric of one benchmark present on both sides.
type delta struct {
	bench  string
	metric string
	base   float64
	head   float64
}

// ratio is head/base; +Inf when a zero base became nonzero.
func (d delta) ratio() float64 {
	switch {
	case d.base != 0:
		return d.head / d.base
	case d.head > 0:
		return math.Inf(1)
	}
	return 1
}

func (d delta) regressed(threshold float64) bool { return d.ratio() > 1+threshold }

// compare pairs benchmarks by pkg+name and diffs every gated metric both
// sides report. missing names the base benchmarks that carried a gated
// metric and are absent from head: they left the gate, which a rename
// must not do silently.
func compare(base, head *Baseline) (deltas []delta, missing []string) {
	heads := map[string]Benchmark{}
	for _, h := range head.Benchmarks {
		heads[h.Pkg+"/"+h.Name] = h
	}
	for _, b := range base.Benchmarks {
		h, paired := heads[b.Pkg+"/"+b.Name]
		for _, metric := range gated {
			bv, ok := b.Metrics[metric]
			if !ok {
				continue
			}
			if !paired {
				missing = append(missing, b.Name)
				break
			}
			if hv, ok := h.Metrics[metric]; ok {
				deltas = append(deltas, delta{bench: b.Name, metric: metric, base: bv, head: hv})
			}
		}
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].bench != deltas[j].bench {
			return deltas[i].bench < deltas[j].bench
		}
		return deltas[i].metric < deltas[j].metric
	})
	sort.Strings(missing)
	return deltas, missing
}

// runCompare is the compare subcommand; it returns the exit status.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.20, "fail when head exceeds base by more than this fraction")
	if err := fs.Parse(args); err != nil || fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: reticle-benchjson compare [-threshold 0.20] base.json [head.json]")
		return 2
	}
	paths := [2]string{fs.Arg(0), baselineFile}
	if fs.NArg() == 2 {
		paths[1] = fs.Arg(1)
	}
	var points [2]*Baseline
	for i := range points {
		var err error
		if points[i], err = load(paths[i]); err != nil {
			fmt.Fprintln(stderr, "reticle-benchjson:", err)
			return 2
		}
	}
	base, head := points[0], points[1]

	deltas, missing := compare(base, head)
	fmt.Fprintf(stdout, "benchjson: %s -> %s, gating %s at +%.0f%%\n",
		short(base.SHA), short(head.SHA), strings.Join(gated, ", "), 100**threshold)
	regressions := 0
	for _, d := range deltas {
		mark := "  "
		if d.regressed(*threshold) {
			mark = "!!"
			regressions++
		}
		fmt.Fprintf(stdout, "%s %-44s %-16s %14.2f -> %14.2f  (%+.1f%%)\n",
			mark, d.bench, d.metric, d.base, d.head, 100*(d.ratio()-1))
	}
	for _, name := range missing {
		fmt.Fprintf(stdout, "-- %-44s gated in base, absent from head\n", name)
	}
	printCode(stdout, base.Code, head.Code)
	printCensus(stdout, base, head)
	switch {
	case len(deltas) == 0:
		fmt.Fprintln(stdout, "benchjson: FAIL: no gated metric is present on both sides; the gate compared nothing")
		return 1
	case regressions > 0:
		fmt.Fprintf(stdout, "benchjson: FAIL: %d gated metric(s) regressed > %.0f%%\n", regressions, 100**threshold)
		return 1
	}
	fmt.Fprintln(stdout, "benchjson: OK")
	return 0
}

// printCode prints, when both points carry code counts, every package
// whose count moved and the module's total. Nothing gates on them.
func printCode(w io.Writer, base, head map[string]int) {
	if base == nil || head == nil {
		return
	}
	var pkgs []string
	for p := range base {
		pkgs = append(pkgs, p)
	}
	for p := range head {
		if _, ok := base[p]; !ok {
			pkgs = append(pkgs, p)
		}
	}
	sort.Strings(pkgs)
	fmt.Fprintln(w, "code: statements + declarations per package (not gated)")
	var tb, th int
	for _, p := range pkgs {
		b, h := base[p], head[p]
		tb, th = tb+b, th+h
		if b != h {
			fmt.Fprintf(w, "   %-44s %6d -> %6d  (%+d)\n", p, b, h, h-b)
		}
	}
	fmt.Fprintf(w, "   %-44s %6d -> %6d  (%+d)\n", "total", tb, th, th-tb)
}

func load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func short(sha string) string {
	if len(sha) > 7 {
		return sha[:7]
	}
	if sha == "" {
		return "?"
	}
	return sha
}

// run dispatches the subcommand and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	switch {
	case len(args) == 1 && args[0] == "record":
		if err := record(stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "reticle-benchjson:", err)
			return 1
		}
		return 0
	case len(args) > 0 && args[0] == "compare":
		return runCompare(args[1:], stdout, stderr)
	}
	fmt.Fprintln(stderr, "usage: reticle-benchjson record | compare [-threshold 0.20] base.json [head.json]")
	return 2
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
