package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: reticle
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCompile/fsm9         	       1	    537375 ns/op	  346336 B/op	    3100 allocs/op
BenchmarkPlaceShrink-8        	       1	   4728574 ns/op	        10.00 solver-steps	         0.4000 hint-hit-rate	  12.5 MB/s
BenchmarkAblationSelector/optimal            	       2	   1403290 ns/op	        90.00 instructions
PASS
ok  	reticle	0.672s
pkg: reticle/internal/csp
BenchmarkSolve 	     100	     12345 ns/op
ok  	reticle/internal/csp	0.1s
pkg: reticle/internal/server
BenchmarkServeCold   	      30	   1238234 ns/op	  321432 B/op	    2048 allocs/op
BenchmarkServeCached 	      30	     67359 ns/op	   30264 B/op	      55 allocs/op
ok  	reticle/internal/server	0.3s
`

func TestParse(t *testing.T) {
	base, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if base.GoOS != "linux" || base.GoArch != "amd64" || !strings.Contains(base.CPU, "Xeon") {
		t.Errorf("context headers: %+v", base)
	}
	if len(base.Benchmarks) != 6 {
		t.Fatalf("got %d benchmarks, want 6", len(base.Benchmarks))
	}
	fsm := base.Benchmarks[0]
	if fsm.Name != "BenchmarkCompile/fsm9" || fsm.Pkg != "reticle" || fsm.Metrics["allocs/op"] != 3100 || fsm.Metrics["B/op"] != 346336 {
		t.Errorf("fsm9 = %+v", fsm)
	}
	ps := base.Benchmarks[1]
	if ps.Name != "BenchmarkPlaceShrink-8" {
		t.Errorf("name = %q", ps.Name)
	}
	if ps.Metrics["solver-steps"] != 10 || ps.Metrics["hint-hit-rate"] != 0.4 {
		t.Errorf("metrics = %v", ps.Metrics)
	}
	if sel := base.Benchmarks[2]; sel.Metrics["instructions"] != 90 {
		t.Errorf("sel = %+v", sel)
	}
	// A result with nothing but a timing is still a benchmark that ran.
	if solve := base.Benchmarks[3]; solve.Pkg != "reticle/internal/csp" || solve.Name != "BenchmarkSolve" || solve.Metrics != nil {
		t.Errorf("solve = %+v", solve)
	}
	cold, cached := base.Benchmarks[4], base.Benchmarks[5]
	if cold.Name != "BenchmarkServeCold" || cold.Pkg != "reticle/internal/server" {
		t.Errorf("cold = %+v", cold)
	}
	if cached.Name != "BenchmarkServeCached" || cached.Metrics["allocs/op"] != 55 {
		t.Errorf("cached = %+v", cached)
	}

	// A recorded point carries no wall clock: no ns/op, no MB/s, under
	// any spelling.
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, timing := range []string{"ns_per_op", "ns/op", "MB/s", `"n"`} {
		if bytes.Contains(data, []byte(timing)) {
			t.Errorf("recorded point carries %s: %s", timing, data)
		}
	}
}

func TestParseSkipsNoise(t *testing.T) {
	noisy := `Benchmarking something informational
BenchmarkBroken   abc	  1 ns/op
BenchmarkReal-4   	   5	  200 ns/op
`
	base, err := Parse(strings.NewReader(noisy))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Benchmarks) != 1 || base.Benchmarks[0].Name != "BenchmarkReal-4" {
		t.Errorf("benchmarks = %+v", base.Benchmarks)
	}
}

func TestParseRejectsBadValue(t *testing.T) {
	bad := "BenchmarkX 	 1	 12 ns/op	 xx metric(u)\n"
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Error("malformed metric value accepted")
	}
}

// The GOMAXPROCS suffix moves off the names only when every benchmark
// carries the same one; a mixed or suffix-free run is left as it is.
func TestStripProcSuffix(t *testing.T) {
	bs := []Benchmark{{Name: "BenchmarkSolve-2"}, {Name: "BenchmarkTensorDot/5x36-2"}}
	if p := stripProcSuffix(bs); p != 2 || bs[0].Name != "BenchmarkSolve" || bs[1].Name != "BenchmarkTensorDot/5x36" {
		t.Errorf("procs %d, names %+v", p, bs)
	}
	for _, mixed := range [][]Benchmark{
		{{Name: "BenchmarkSolve-2"}, {Name: "BenchmarkFigure4"}},
		{{Name: "BenchmarkSolve-2"}, {Name: "BenchmarkSolveWarm-4"}},
		{{Name: "BenchmarkPlace-wide"}},
	} {
		before := mixed[0].Name
		if p := stripProcSuffix(mixed); p != 0 || mixed[0].Name != before {
			t.Errorf("stripped %q to %q (procs %d) from a run without a common suffix", before, mixed[0].Name, p)
		}
	}
}

func baselines() (*Baseline, *Baseline) {
	base := &Baseline{SHA: "aaaa", Benchmarks: []Benchmark{
		{Pkg: "reticle", Name: "BenchmarkPlaceShrink",
			Metrics: map[string]float64{
				"solver-steps": 10, "shrink-probes": 1, "place-ns": 800_000,
				"hint-hit-rate": 0.4,
			}},
		{Pkg: "reticle/internal/csp", Name: "BenchmarkSolve",
			Metrics: map[string]float64{"allocs/op": 261}},
		{Pkg: "reticle", Name: "BenchmarkInterpreter"},
	}}
	head := &Baseline{SHA: "bbbb", Benchmarks: []Benchmark{
		{Pkg: "reticle", Name: "BenchmarkPlaceShrink",
			Metrics: map[string]float64{
				"solver-steps": 10, "shrink-probes": 1, "place-ns": 8_000_000,
				"hint-hit-rate": 0.1, // worse, but higher-is-better: never a failure
			}},
		{Pkg: "reticle/internal/csp", Name: "BenchmarkSolve",
			Metrics: map[string]float64{"allocs/op": 270}},
		{Pkg: "reticle", Name: "BenchmarkInterpreter"},
	}}
	return base, head
}

func countRegressed(ds []delta, threshold float64) int {
	n := 0
	for _, d := range ds {
		if d.regressed(threshold) {
			n++
		}
	}
	return n
}

// runOf is one recorded run of two benchmarks.
func runOf(allocs, bytes, steps float64) *Baseline {
	return &Baseline{Benchmarks: []Benchmark{
		{Pkg: "p", Name: "BenchmarkGenerate/lut", Metrics: map[string]float64{"allocs/op": allocs, "B/op": bytes}},
		{Pkg: "p", Name: "BenchmarkPlaceShrink", Metrics: map[string]float64{"solver-steps": steps}},
	}}
}

// record keeps the least allocs/op and the median B/op of its runs,
// whichever run read each, and every other metric as the runs agree on it.
func TestMergeRunsKeepsMinimum(t *testing.T) {
	got, err := mergeRuns([]*Baseline{runOf(34, 9000, 10), runOf(28, 9100, 10), runOf(30, 8800, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if m := got.Benchmarks[0].Metrics; m["allocs/op"] != 28 || m["B/op"] != 9000 {
		t.Errorf("merged %v, want allocs/op 28 (the minimum) and B/op 9000 (the median)", m)
	}
	if m := got.Benchmarks[1].Metrics; m["solver-steps"] != 10 {
		t.Errorf("merged %v, want solver-steps 10", m)
	}
}

// A counter that is not allowed to be noisy and differs between runs
// fails the record and is named; so does a run that lacks a benchmark.
func TestMergeRunsRejectsDisagreement(t *testing.T) {
	_, err := mergeRuns([]*Baseline{runOf(28, 9000, 10), runOf(28, 9000, 10), runOf(28, 9000, 11)})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkPlaceShrink") || !strings.Contains(err.Error(), "solver-steps") {
		t.Errorf("disagreeing solver-steps: %v", err)
	}
	short := runOf(28, 9000, 10)
	short.Benchmarks = short.Benchmarks[:1]
	if _, err := mergeRuns([]*Baseline{runOf(28, 9000, 10), short}); err == nil {
		t.Error("a run missing a benchmark merged")
	}
}

// Within threshold on every gated metric: no regression, and a
// benchmark that reports no gated metric is neither compared nor missed.
func TestCompareWithinThreshold(t *testing.T) {
	base, head := baselines()
	ds, missing := compare(base, head)
	if len(ds) != 3 || len(missing) != 0 {
		t.Fatalf("deltas %+v, missing %v; want solver-steps, shrink-probes, allocs/op", ds, missing)
	}
	if n := countRegressed(ds, 0.20); n != 0 {
		t.Errorf("regressions = %d, want 0: %+v", n, ds)
	}
}

// A >20% jump in solver-steps must be flagged.
func TestCompareFlagsStepRegression(t *testing.T) {
	base, head := baselines()
	head.Benchmarks[0].Metrics["solver-steps"] = 13 // +30%
	ds, _ := compare(base, head)
	found := false
	for _, d := range ds {
		if d.metric == "solver-steps" && d.regressed(0.20) {
			found = true
		}
	}
	if !found || countRegressed(ds, 0.20) != 1 {
		t.Errorf("solver-steps 10 -> 13 not the one regression at 20%%: %+v", ds)
	}
}

// A zero base that becomes nonzero is a regression (e.g. probes that
// were all revalidated away starting to hit the solver again).
func TestCompareZeroBase(t *testing.T) {
	if d := (delta{base: 0, head: 5}); !d.regressed(0.20) {
		t.Error("0 -> 5 not flagged")
	}
	if d := (delta{base: 0, head: 0}); d.regressed(0.20) {
		t.Error("0 -> 0 flagged")
	}
}

// Benchmarks present in only one file produce no delta; the ones that
// left the gate are named.
func TestCompareDisjointSets(t *testing.T) {
	base := &Baseline{Benchmarks: []Benchmark{{Pkg: "p", Name: "BenchmarkPlaceOld", Metrics: map[string]float64{"allocs/op": 1}}}}
	head := &Baseline{Benchmarks: []Benchmark{{Pkg: "p", Name: "BenchmarkPlaceNew", Metrics: map[string]float64{"allocs/op": 2}}}}
	ds, missing := compare(base, head)
	if len(ds) != 0 {
		t.Errorf("disjoint sets produced deltas: %+v", ds)
	}
	if len(missing) != 1 || missing[0] != "BenchmarkPlaceOld" {
		t.Errorf("missing = %v, want the renamed benchmark", missing)
	}
}

// The gate table is the only thing that decides what is compared: every
// entry gates on every benchmark that reports it on both sides, and
// nothing outside it does — a 10x place-ns blow-up and a collapsed
// higher-is-better rate are invisible.
func TestGateTable(t *testing.T) {
	want := []string{"solver-steps", "shrink-probes", "steps-per-probe", "steps-per-edit", "allocs/op", "B/op"}
	if strings.Join(gated, " ") != strings.Join(want, " ") {
		t.Fatalf("gated = %v, want %v", gated, want)
	}
	for _, metric := range gated {
		base := &Baseline{Benchmarks: []Benchmark{{Pkg: "p", Name: "BenchmarkAnything", Metrics: map[string]float64{metric: 100}}}}
		head := &Baseline{Benchmarks: []Benchmark{{Pkg: "p", Name: "BenchmarkAnything", Metrics: map[string]float64{metric: 130}}}}
		if ds, _ := compare(base, head); countRegressed(ds, 0.20) != 1 {
			t.Errorf("%s 100 -> 130 on an arbitrary benchmark not flagged: %+v", metric, ds)
		}
	}
	base, head := baselines()
	ds, _ := compare(base, head)
	for _, d := range ds {
		if d.metric == "place-ns" || d.metric == "hint-hit-rate" {
			t.Errorf("ungated metric %s compared", d.metric)
		}
	}
	if n := countRegressed(ds, 0.20); n != 0 {
		t.Errorf("ungated changes flagged %d regressions: %+v", n, ds)
	}
}

// A gate that compared nothing must fail: two points sharing no gated
// metric exit 1, not 0, and the benchmarks that fell out are printed.
func TestCompareVacuousPassFails(t *testing.T) {
	write := func(name string, b *Baseline) string {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, head := baselines()
	renamed := &Baseline{SHA: "cccc", Benchmarks: []Benchmark{
		{Pkg: "reticle", Name: "BenchmarkPlaceShrink-8", Metrics: head.Benchmarks[0].Metrics},
	}}
	var out, errOut bytes.Buffer
	if code := run([]string{"compare", write("base.json", base), write("head.json", renamed)}, &out, &errOut); code != 1 {
		t.Errorf("vacuous compare exited %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"compared nothing", "BenchmarkPlaceShrink", "BenchmarkSolve"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := run([]string{"compare", write("base.json", base), write("head.json", head)}, &out, &errOut); code != 0 {
		t.Errorf("healthy compare exited %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
	if code := run([]string{"compare", "-filter", "x", "a", "b"}, &out, &errOut); code != 2 {
		t.Errorf("a deleted flag exited %d, want usage status 2", code)
	}
}

// With one argument the head is the tree's own BENCH_baseline.json: the
// point record just overwrote.
func TestCompareHeadDefaultsToBaselineFile(t *testing.T) {
	base, head := baselines()
	dir := t.TempDir()
	for name, b := range map[string]*Baseline{"base.json": base, baselineFile: head} {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out, errOut bytes.Buffer
	if code := run([]string{"compare", "base.json"}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "aaaa -> bbbb") {
		t.Errorf("compare base.json exited %d\n%s%s", code, out.String(), errOut.String())
	}
	if code := run([]string{"compare"}, &out, &errOut); code != 2 {
		t.Errorf("compare without a base exited %d, want usage status 2", code)
	}
}

// writeFiles creates each name under dir with its contents.
func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, body := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// The count reads the syntax tree: one program written tight and written
// loose, with comments, counts alike, and counts what countFile names.
func TestCountFileIgnoresFormatting(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, map[string]string{
		"tight.go": "package p\nimport \"fmt\"\nconst a, b = 1, 2\nvar (x int; y = a)\ntype T struct{ n int }\n" +
			"func f(n int) int { if n > 0 { n--; fmt.Println(n) }; for i := 0; i < n; i++ { x += i }; return n }\n",
		"loose.go": `package p

import (
	"fmt"
)

// two constants
const a, b = 1, 2

var (
	x int
	y = a
)

type T struct {
	n int
}

func f(n int) int {
	if n > 0 {
		n--

		fmt.Println(n) // a call
	}
	for i := 0; i < n; i++ {
		x += i
	}
	return n
}
`,
	})
	// const 1 + var 2 + type 1 + func 1; statements: if, n--, the call,
	// for, i := 0, i++, x += i, return.
	const want = 5 + 8
	for _, name := range []string{"tight.go", "loose.go"} {
		if n, err := countFile(filepath.Join(dir, name)); err != nil || n != want {
			t.Errorf("%s: %d, %v; want %d", name, n, err, want)
		}
	}
}

// countModule counts the non-test files a build compiles, per package,
// and leaves out tests, testdata, nested modules and ignored files.
func TestCountModule(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, map[string]string{
		"go.mod":                   "module example.com/m\n\ngo 1.22\n",
		"m.go":                     "package m\n\nfunc F() { F() }\n",
		"m_test.go":                "package m\n\nfunc G() { G(); G() }\n",
		"internal/q/q.go":          "package q\n\nvar V = 1\n",
		"internal/q/ignored.go":    "//go:build ignore\n\npackage q\n\nvar W = 2\n",
		"internal/q/testdata/x.go": "package x\n\nvar X = 3\n",
		"nested/go.mod":            "module example.com/nested\n",
		"nested/n.go":              "package nested\n\nvar N = 4\n",
		"onlytests/t_test.go":      "package onlytests\n",
	})
	got, err := countModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"example.com/m": 2, "example.com/m/internal/q": 1}
	if len(got) != len(want) || got["example.com/m"] != 2 || got["example.com/m/internal/q"] != 1 {
		t.Errorf("counts %v, want %v", got, want)
	}
}

// compare prints the code deltas of two points that carry counts — the
// packages that moved and the total — and never fails on them; a point
// without counts compares as before.
func TestCompareCodeDeltas(t *testing.T) {
	base, head := baselines()
	var plain bytes.Buffer
	if code := compareFiles(t, base, head, &plain); code != 0 {
		t.Fatalf("compare exited %d\n%s", code, plain.String())
	}
	if strings.Contains(plain.String(), "code:") {
		t.Errorf("points without counts printed code deltas:\n%s", plain.String())
	}

	base.Code = map[string]int{"reticle": 100, "reticle/internal/server": 50, "reticle/internal/gone": 7}
	head.Code = map[string]int{"reticle": 100, "reticle/internal/server": 80, "reticle/internal/new": 3}
	var out bytes.Buffer
	if code := compareFiles(t, base, head, &out); code != 0 {
		t.Fatalf("code growth failed the compare (exit %d)\n%s", code, out.String())
	}
	if regexp.MustCompile(`(?m)^code:.*\n(^   .*\n)*`).ReplaceAllString(out.String(), "") != plain.String() {
		t.Errorf("code deltas moved the rest of the report:\n%s", out.String())
	}
	for _, want := range []string{"reticle/internal/server", "(+30)", "reticle/internal/gone", "(-7)", "reticle/internal/new", "(+3)", "total", "157 ->    183  (+26)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "   reticle  ") {
		t.Errorf("an unmoved package was printed:\n%s", out.String())
	}
}

// compareFiles writes both points and runs compare on them into out.
func compareFiles(t *testing.T, base, head *Baseline, out *bytes.Buffer) int {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for name, b := range map[string]*Baseline{"base.json": base, "head.json": head} {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	sort.Strings(paths)
	var errOut bytes.Buffer
	return run([]string{"compare", paths[0], paths[1]}, out, &errOut)
}

// The census sorts the fixture module's exports: a method only the
// standard library calls, one the facade selects and one the benchmark
// module calls stay off it; an export only another package's tests use is
// test-only; an unused one and one only its own tests use are dead, and so
// is a method whose name the facade selects only on another type. Edges
// are the root module's, tests and the benchmark module left out.
func TestCensus(t *testing.T) {
	c, edges, err := takeCensus(filepath.Join("testdata", "census"))
	if err != nil {
		t.Fatal(err)
	}
	const lib = "example.com/m/internal/lib"
	wantDead := []string{lib + ".Cursor.Next", lib + ".Dead", lib + ".OwnTest", lib + ".T.Unselected"}
	if strings.Join(c.Dead, " ") != strings.Join(wantDead, " ") {
		t.Errorf("dead %q, want %q", c.Dead, wantDead)
	}
	if got := c.TestOnly; len(got) != 1 || got[0] != lib+".TestOnly [example.com/m/internal/other]" {
		t.Errorf("test_only %q", got)
	}
	if c.InternalOnly != 2 {
		t.Errorf("internal_only %d, want 2 (Own, and T, which the facade never names)", c.InternalOnly)
	}
	if want := []string{"example.com/m -> " + lib}; strings.Join(edges, ",") != strings.Join(want, ",") {
		t.Errorf("edges %q, want %q", edges, want)
	}
}

// compare prints the census entries and edges that moved; a dead export
// gone, test-only and internal-only moves and edges fail nothing.
func TestCompareCensusMoves(t *testing.T) {
	base, head := baselines()
	base.Census = &Census{Dead: []string{"p.A", "p.B"}, TestOnly: []string{"p.T [q]"}, InternalOnly: 9}
	head.Census = &Census{Dead: []string{"p.B"}, TestOnly: []string{"p.U [r]"}, InternalOnly: 7}
	base.Edges, head.Edges = []string{"a -> b", "a -> c"}, []string{"a -> c", "a -> d"}
	var out bytes.Buffer
	if code := compareFiles(t, base, head, &out); code != 0 {
		t.Fatalf("census moves failed the compare (exit %d)\n%s", code, out.String())
	}
	for _, want := range []string{"- dead       p.A", "- test_only  p.T [q]", "+ test_only  p.U [r]", "- edge       a -> b", "+ edge       a -> d",
		"dead              2 ->      1  (-1)", "internal          9 ->      7  (-2)", "edges             2 ->      2  (+0)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "p.B") {
		t.Errorf("an unmoved entry was printed:\n%s", out.String())
	}
}

// A dead export the base lacks fails the compare and is named; one the
// base already had does not, and a point without a census gates nothing.
func TestCompareFailsOnNewDeadExport(t *testing.T) {
	base, head := baselines()
	base.Census = &Census{Dead: []string{"p.A", "p.B"}}
	head.Census = &Census{Dead: []string{"p.B", "p.C", "p.D"}}
	var out bytes.Buffer
	if code := compareFiles(t, base, head, &out); code != 1 {
		t.Fatalf("new dead exports exited %d, want 1\n%s", code, out.String())
	}
	for _, want := range []string{"+ dead       p.C", "+ dead       p.D", "dead              2 ->      3  (+1)", "FAIL: 2 new dead export(s): p.C, p.D"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	head.Census.Dead = []string{"p.B"}
	out.Reset()
	if code := compareFiles(t, base, head, &out); code != 0 {
		t.Errorf("an old dead export failed the compare (exit %d)\n%s", code, out.String())
	}
	base.Census = nil
	head.Census.Dead = []string{"p.C"}
	out.Reset()
	if code := compareFiles(t, base, head, &out); code != 0 {
		t.Errorf("a base without a census gated the compare (exit %d)\n%s", code, out.String())
	}
}
