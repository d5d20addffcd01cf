package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload untraced and traced in smoke mode: real
// server children on loopback, the oracle, the replay and the trace file,
// with one-second windows over tiny working sets.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches server processes")
	}
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	out := filepath.Join(dir, "results.json")
	code, err := run(ctx, options{seed: 1, seconds: 0.5, smoke: true, repeat: 1, out: out,
		root: root, binDir: filepath.Join(dir, "bin"), workDir: filepath.Join(dir, "work")})
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("smoke run exit code %d, want 0", code)
	}
	runs, err := loadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2*len(workloads) {
		t.Fatalf("%d runs, want %d", len(runs), 2*len(workloads))
	}
	for _, r := range runs {
		defs := endToEndDefs
		if r.Trace {
			defs = perLayerDefs
		}
		if !r.Correct || r.Attempted == 0 {
			t.Errorf("%s traced=%t: correct=%t attempted=%d: %v", r.Workload, r.Trace, r.Correct, r.Attempted, r.Failures)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s traced=%t: %d metrics, want %d", r.Workload, r.Trace, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			if _, ok := r.Metrics[d.Name]; !ok {
				t.Errorf("%s traced=%t: metric %s missing", r.Workload, r.Trace, d.Name)
			}
		}
		if !r.Trace {
			for _, d := range endToEndDefs {
				if r.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", r.Workload, d.Name, r.Metrics[d.Name].Value)
				}
			}
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, "work", "trace.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("trace.jsonl missing or empty: %v", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "work"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("temp directory %s left behind", e.Name())
		}
	}
}

// TestStartClusterReportsDeadChild and TestAnsweringPortIsRefused cover
// the harness's process hygiene without a full run.
func TestStartClusterReportsDeadChild(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		t.Fatal(err)
	}
	// A "server" that exits at once: set-up must fail fast, not poll for 30 s.
	if err := os.WriteFile(filepath.Join(bin, "reticle-serve"), []byte("#!/bin/sh\nexit 3\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(dir, "work")
	t0 := time.Now()
	cl, err := startCluster(context.Background(), bin, work, clusterSpec{})
	if err == nil {
		cl.stop()
		t.Fatal("startCluster succeeded with a child that exits at once")
	}
	if time.Since(t0) > 5*time.Second {
		t.Errorf("dead child took %s to report", time.Since(t0))
	}
	if entries, _ := os.ReadDir(work); len(entries) != 0 {
		t.Errorf("failed start left %d entries in the work directory", len(entries))
	}
}

func TestAnsweringPortIsRefused(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := refuseIfAnswers(l.Addr().String()); err == nil {
		t.Error("a port with a listener on it was accepted")
	}
	addr, err := freeAddr()
	if err != nil {
		t.Fatalf("freeAddr: %v", err)
	}
	if err := refuseIfAnswers(addr); err != nil {
		t.Errorf("a free port was refused: %v", err)
	}
}

// TestBenchmarkJSONMatchesRegistry holds BENCHMARK.json and the metric
// and workload registries of this program together.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEndDefs) || len(bj.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, d := range endToEndDefs {
		if g := bj.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, program %+v", i, g, d)
		}
	}
	for i, d := range perLayerDefs {
		if g := bj.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, program %+v", i, g, d)
		}
	}
}
