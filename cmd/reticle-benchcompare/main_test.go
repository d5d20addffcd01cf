package main

import (
	"regexp"
	"testing"
)

func baselines() (*Baseline, *Baseline) {
	base := &Baseline{SHA: "aaaa", Benchmarks: []Benchmark{
		{Pkg: "reticle", Name: "BenchmarkPlaceShrink", NsPerOp: 1_000_000,
			Metrics: map[string]float64{
				"solver-steps": 10, "shrink-probes": 1, "place-ns": 800_000,
				"hint-hit-rate": 0.4,
			}},
		{Pkg: "reticle/internal/csp", Name: "BenchmarkSolve-8", NsPerOp: 85_000,
			Metrics: map[string]float64{"allocs/op": 261}},
		{Pkg: "reticle", Name: "BenchmarkCompile", NsPerOp: 5_000_000},
	}}
	head := &Baseline{SHA: "bbbb", Benchmarks: []Benchmark{
		{Pkg: "reticle", Name: "BenchmarkPlaceShrink", NsPerOp: 1_050_000,
			Metrics: map[string]float64{
				"solver-steps": 10, "shrink-probes": 1, "place-ns": 820_000,
				"hint-hit-rate": 0.1, // worse, but higher-is-better: never a failure
			}},
		{Pkg: "reticle/internal/csp", Name: "BenchmarkSolve-8", NsPerOp: 84_000,
			Metrics: map[string]float64{"allocs/op": 261}},
		{Pkg: "reticle", Name: "BenchmarkCompile", NsPerOp: 50_000_000},
	}}
	return base, head
}

var (
	placeFilter = regexp.MustCompile(`PlaceShrink|Solve|Shrink|Place`)
	allMetrics  = regexp.MustCompile("")
)

func countRegressed(ds []delta, threshold float64) int {
	n := 0
	for _, d := range ds {
		if d.regressed(threshold) {
			n++
		}
	}
	return n
}

// Within threshold on every placement metric: no regression, and the
// unrelated BenchmarkCompile 10x slowdown is filtered out entirely.
func TestCompareWithinThreshold(t *testing.T) {
	base, head := baselines()
	ds := compare(base, head, placeFilter, allMetrics)
	if len(ds) == 0 {
		t.Fatal("no deltas compared")
	}
	for _, d := range ds {
		if d.bench == "BenchmarkCompile" {
			t.Errorf("filter leaked %s into the comparison", d.bench)
		}
		if d.metric == "hint-hit-rate" {
			t.Errorf("higher-is-better metric %s compared", d.metric)
		}
	}
	if n := countRegressed(ds, 0.20); n != 0 {
		t.Errorf("regressions = %d, want 0: %+v", n, ds)
	}
}

// A >20% jump in solver-steps must be flagged.
func TestCompareFlagsStepRegression(t *testing.T) {
	base, head := baselines()
	head.Benchmarks[0].Metrics["solver-steps"] = 13 // +30%
	ds := compare(base, head, placeFilter, allMetrics)
	found := false
	for _, d := range ds {
		if d.metric == "solver-steps" && d.regressed(0.20) {
			found = true
		}
	}
	if !found {
		t.Errorf("solver-steps 10 -> 13 not flagged at 20%%: %+v", ds)
	}
}

// A zero base that becomes nonzero is a regression (e.g. probes that
// were all revalidated away starting to hit the solver again).
func TestCompareZeroBase(t *testing.T) {
	d := delta{base: 0, head: 5, ratio: inf()}
	if !d.regressed(0.20) {
		t.Error("0 -> 5 not flagged")
	}
	d = delta{base: 0, head: 0, ratio: 1}
	if d.regressed(0.20) {
		t.Error("0 -> 0 flagged")
	}
}

// Benchmarks present in only one file are skipped, not errors.
func TestCompareDisjointSets(t *testing.T) {
	base := &Baseline{Benchmarks: []Benchmark{{Pkg: "p", Name: "BenchmarkPlaceOld", NsPerOp: 1}}}
	head := &Baseline{Benchmarks: []Benchmark{{Pkg: "p", Name: "BenchmarkPlaceNew", NsPerOp: 2}}}
	if ds := compare(base, head, placeFilter, allMetrics); len(ds) != 0 {
		t.Errorf("disjoint sets produced deltas: %+v", ds)
	}
}

// -metrics splits one pair of baselines into two gates: a 10x ns_per_op
// blow-up is invisible to the machine-independent gate, and a step-count
// regression is invisible to the timing gate.
func TestCompareMetricsFilter(t *testing.T) {
	base, head := baselines()
	head.Benchmarks[0].NsPerOp = 10_000_000         // 10x slower
	head.Benchmarks[0].Metrics["solver-steps"] = 13 // +30%
	counts := regexp.MustCompile(`^(solver-steps|steps-per-probe|steps-per-edit|allocs/op|B/op)$`)
	timings := regexp.MustCompile(`ns`)
	for _, d := range compare(base, head, placeFilter, counts) {
		if d.metric == "ns_per_op" || d.metric == "place-ns" {
			t.Errorf("count gate compared timing metric %s", d.metric)
		}
	}
	if n := countRegressed(compare(base, head, placeFilter, counts), 0.20); n != 1 {
		t.Errorf("count gate flagged %d regressions, want exactly the solver-steps one", n)
	}
	ds := compare(base, head, placeFilter, timings)
	for _, d := range ds {
		if d.metric == "solver-steps" || d.metric == "allocs/op" {
			t.Errorf("timing gate compared count metric %s", d.metric)
		}
	}
	if n := countRegressed(ds, 0.20); n != 1 {
		t.Errorf("timing gate flagged %d regressions, want exactly the ns_per_op one", n)
	}
}
