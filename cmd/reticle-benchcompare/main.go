// Command reticle-benchcompare diffs two BENCH_<sha>.json baselines
// (produced by scripts/bench_baseline.sh / reticle-benchjson) and fails
// when a placement-stage metric regresses past a threshold, so the
// shrink-loop speedups guarded by BenchmarkPlaceShrink cannot silently
// erode between commits.
//
// Usage:
//
//	reticle-benchcompare [-threshold 0.20] [-filter regexp] [-metrics regexp] base.json head.json
//
// Only benchmarks whose name matches -filter (default: the placement
// and CSP-solver benchmarks plus BenchmarkEditReplay, BenchmarkExplore,
// BenchmarkCompileBatch, the service hit path (BenchmarkServeCached,
// BenchmarkServeBatchCached), the cold path (BenchmarkServeCold) and
// BenchmarkAblationSelector) are compared,
// and only on metrics where
// lower is better: ns_per_op, B/op, and allocs/op (recorded when the
// baseline ran with -benchmem) plus the counter metrics the placement
// benchmarks report (solver-steps, shrink-probes, steps-per-probe,
// steps-per-edit, place-ns) and the sweep engine's
// explore-ns-per-variant. Rate metrics where higher is better
// (hint-hit-rate, hint-cache-hit-rate, probes-skipped) are never
// treated as regressions.
//
// -metrics narrows the comparison to the metric names it matches, so one
// tool serves two CI gates: the machine-independent counts (solver-steps,
// steps-per-probe, steps-per-edit, allocs/op, B/op) block a merge, the
// timings (ns_per_op, place-ns, ...) stay advisory.
//
// Exit status: 0 when no compared metric regressed, 1 on regression,
// 2 on usage or parse errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// Benchmark mirrors the entry shape reticle-benchjson writes.
type Benchmark struct {
	Pkg     string             `json:"pkg"`
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics"`
}

// Baseline mirrors the file shape reticle-benchjson writes.
type Baseline struct {
	SHA        string      `json:"sha"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// lowerIsBetter lists the custom metrics a regression check applies to.
// Everything else under "metrics" (hint-hit-rate, probes-skipped,
// speedup factors, resource counts) either improves upward or is not a
// performance axis, so it is reported but never failed on.
var lowerIsBetter = map[string]bool{
	"solver-steps":    true,
	"shrink-probes":   true,
	"steps-per-probe": true,
	"steps-per-edit":  true,
	"place-ns":        true,
	// The /explore sweep engine: warm per-variant latency.
	"explore-ns-per-variant": true,
	"B/op":                   true,
	"allocs/op":              true,
}

// delta is one compared metric of one benchmark.
type delta struct {
	bench  string
	metric string
	base   float64
	head   float64
	ratio  float64 // head/base; +Inf when base == 0 and head > 0
}

func (d delta) regressed(threshold float64) bool {
	if d.base == 0 {
		return d.head > 0
	}
	return d.ratio > 1+threshold
}

// compare pairs benchmarks by pkg+name and diffs every lower-is-better
// metric present on both sides whose name matches metrics. Benchmarks
// present only in one file are ignored: the tool guards metrics, not
// benchmark-set churn.
func compare(base, head *Baseline, filter, metrics *regexp.Regexp) []delta {
	byKey := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		byKey[b.Pkg+"/"+b.Name] = b
	}
	var out []delta
	for _, h := range head.Benchmarks {
		if !filter.MatchString(h.Name) {
			continue
		}
		b, ok := byKey[h.Pkg+"/"+h.Name]
		if !ok {
			continue
		}
		out = append(out, diffOne(b, h, metrics)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].bench != out[j].bench {
			return out[i].bench < out[j].bench
		}
		return out[i].metric < out[j].metric
	})
	return out
}

func diffOne(b, h Benchmark, metrics *regexp.Regexp) []delta {
	var out []delta
	add := func(metric string, bv, hv float64) {
		if !metrics.MatchString(metric) {
			return
		}
		d := delta{bench: h.Name, metric: metric, base: bv, head: hv}
		switch {
		case bv != 0:
			d.ratio = hv / bv
		case hv > 0:
			d.ratio = inf()
		default:
			d.ratio = 1
		}
		out = append(out, d)
	}
	add("ns_per_op", b.NsPerOp, h.NsPerOp)
	for metric := range lowerIsBetter {
		if metric == "ns_per_op" {
			continue
		}
		bv, bok := b.Metrics[metric]
		hv, hok := h.Metrics[metric]
		if bok && hok {
			add(metric, bv, hv)
		}
	}
	return out
}

func inf() float64 {
	var zero float64
	return 1 / zero
}

func main() {
	threshold := flag.Float64("threshold", 0.20,
		"fail when head exceeds base by more than this fraction")
	filterStr := flag.String("filter", `PlaceShrink|Solve|Shrink|Place|EditReplay|Explore|CompileBatch|ServeCached|ServeBatchCached|ServeCold|AblationSelector`,
		"regexp of benchmark names to compare (placement-stage, hit-path, cold-path and selector by default)")
	metricsStr := flag.String("metrics", "",
		"regexp of metric names to compare (ns_per_op, B/op, solver-steps, ...); empty compares all")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: reticle-benchcompare [-threshold 0.20] [-filter regexp] [-metrics regexp] base.json head.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	filter, err := regexp.Compile(*filterStr)
	if err != nil {
		fail(fmt.Errorf("bad -filter: %w", err))
	}
	metrics, err := regexp.Compile(*metricsStr)
	if err != nil {
		fail(fmt.Errorf("bad -metrics: %w", err))
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	head, err := load(flag.Arg(1))
	if err != nil {
		fail(err)
	}

	deltas := compare(base, head, filter, metrics)
	if len(deltas) == 0 {
		fmt.Printf("benchcompare: no overlapping placement benchmarks between %s and %s (filter %q, metrics %q)\n",
			short(base.SHA), short(head.SHA), *filterStr, *metricsStr)
		return
	}

	fmt.Printf("benchcompare: %s -> %s, threshold +%.0f%%\n",
		short(base.SHA), short(head.SHA), 100**threshold)
	regressions := 0
	for _, d := range deltas {
		mark := "  "
		if d.regressed(*threshold) {
			mark = "!!"
			regressions++
		}
		fmt.Printf("%s %-40s %-16s %14.2f -> %14.2f  (%+.1f%%)\n",
			mark, d.bench, d.metric, d.base, d.head, 100*(d.ratio-1))
	}
	if regressions > 0 {
		fmt.Printf("benchcompare: FAIL: %d placement metric(s) regressed > %.0f%%\n",
			regressions, 100**threshold)
		os.Exit(1)
	}
	fmt.Println("benchcompare: OK")
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
	if len(sha) > 8 {
		return sha[:8]
	}
	if sha == "" {
		return "?"
	}
	return sha
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reticle-benchcompare:", err)
	os.Exit(2)
}
