package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so a spread
// printed here is the spread the benchmark's driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// untracedValues collects, per workload and end-to-end metric, the values
// of every untraced run in runs.
func untracedValues(runs []*runResult) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, d := range endToEndDefs {
			if m, ok := r.Metrics[d.Name]; ok {
				out[r.Workload][d.Name] = append(out[r.Workload][d.Name], m.Value)
			}
		}
	}
	return out
}

// printSpread reports median and quartiles per workload and end-to-end
// metric over repeated runs, and the quartile distance as a share of the
// median next to the metric's bound.
func printSpread(runs []*runResult) {
	vals := untracedValues(runs)
	fmt.Printf("\n%-12s %-22s %3s %14s %14s %14s %8s %6s\n",
		"workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloads {
		for _, d := range endToEndDefs {
			xs := vals[w.name][d.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			med := median(xs)
			fmt.Printf("%-12s %-22s %3d %14.4f %14.4f %14.4f %7.2f%% %5.0f%%\n",
				w.name, d.Name, len(xs), med, q1, q3, 100*(q3-q1)/med, 100*d.Bound)
		}
	}
}

func loadResults(path string) ([]*runResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return f.Runs, nil
}

// checkRow is one workload x metric comparison.
type checkRow struct {
	workload string
	def      metricDef
	a, b     float64 // medians of the untraced runs on each side
	worse    float64 // how much B is worse than A, as a share of A; negative when better
	ok       bool
}

// compare sets B's medians against A's for every workload and end-to-end
// metric both files hold. A row fails when B is worse than A by more
// than the metric's bound.
func compare(a, b []*runResult) []checkRow {
	va, vb := untracedValues(a), untracedValues(b)
	var rows []checkRow
	for _, w := range workloads {
		for _, d := range endToEndDefs {
			xa, xb := va[w.name][d.Name], vb[w.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			row := checkRow{workload: w.name, def: d, a: median(xa), b: median(xb)}
			row.worse = (row.b - row.a) / row.a
			if d.Better == "higher" {
				row.worse = -row.worse
			}
			row.ok = row.worse <= d.Bound
			rows = append(rows, row)
		}
	}
	return rows
}

func failedRuns(runs []*runResult) int {
	n := 0
	for _, r := range runs {
		if !r.Correct {
			n++
		}
	}
	return n
}

// checkMain implements `reticle-load check A.json B.json`: one row per
// workload and metric with both values and B/A, and a non-zero exit when
// any end-to-end metric of B is worse than A's by more than its bound.
func checkMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: reticle-load check A.json B.json")
		return 2
	}
	var sides [2][]*runResult
	for i, path := range args {
		runs, err := loadResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reticle-load check:", err)
			return 2
		}
		sides[i] = runs
	}
	rows := compare(sides[0], sides[1])
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "reticle-load check: the files share no workload and metric")
		return 2
	}
	bad := 0
	fmt.Printf("%-12s %-22s %14s %14s %12s %7s\n", "workload", "metric", "A", "B", "B/A", "bound")
	for _, r := range rows {
		verdict := "ok"
		if !r.ok {
			verdict = "WORSE"
			bad++
		}
		fmt.Printf("%-12s %-22s %14.4f %14.4f %9.4f of A %5.0f%% %s\n",
			r.workload, r.def.Name, r.a, r.b, r.b/r.a, 100*r.def.Bound, verdict)
	}
	if fa, fb := failedRuns(sides[0]), failedRuns(sides[1]); fb > fa {
		fmt.Printf("B has %d runs with failed requests or oracle checks, A has %d\n", fb, fa)
		bad++
	}
	if bad > 0 {
		return 1
	}
	return 0
}
