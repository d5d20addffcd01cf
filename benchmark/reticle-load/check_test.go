package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func untraced(workload string, values map[string]float64) *runResult {
	r := &runResult{Workload: workload, Correct: true, Attempted: 1, Metrics: map[string]metric{}}
	for name, v := range values {
		r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	return r
}

func TestCompareAppliesBoundsByDirection(t *testing.T) {
	a := []*runResult{untraced("cold-dsp", map[string]float64{"artifacts_per_s": 100, "latency_p50_ms": 10, "setup_s": 1})}
	b := []*runResult{untraced("cold-dsp", map[string]float64{"artifacts_per_s": 70, "latency_p50_ms": 10.5, "setup_s": 0.5})}
	got := map[string]bool{}
	for _, row := range compare(a, b) {
		got[row.def.Name] = row.ok
	}
	want := map[string]bool{
		"artifacts_per_s": false, // 30% fewer, bound 25%
		"latency_p50_ms":  true,  // 5% slower, bound 25%
		"setup_s":         true,  // better
	}
	for name, ok := range want {
		if got[name] != ok {
			t.Errorf("%s: ok=%t, want %t", name, got[name], ok)
		}
	}
	if len(got) != len(want) {
		t.Errorf("compared %d metrics, want %d", len(got), len(want))
	}
}

func TestCheckMainExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs ...*runResult) string {
		raw, err := json.Marshal(resultFile{Runs: runs})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", untraced("hot-serve", map[string]float64{"latency_p90_ms": 1.0}))
	same := write("b.json", untraced("hot-serve", map[string]float64{"latency_p90_ms": 1.1}))
	worse := write("c.json", untraced("hot-serve", map[string]float64{"latency_p90_ms": 1.3}))
	if code := checkMain([]string{base, same}); code != 0 {
		t.Errorf("10%% slower p90 (bound 25%%): exit %d, want 0", code)
	}
	if code := checkMain([]string{base, worse}); code != 1 {
		t.Errorf("30%% slower p90: exit %d, want 1", code)
	}
	if code := checkMain([]string{base}); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}
