package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: reticle
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFigure4              	       1	  15180144 ns/op
BenchmarkTensorAdd/n64-8      	       1	  13429797 ns/op	        12.97 compile-speedup-base(x)	         1.363 run-speedup-base(x)
BenchmarkAblationSelector/optimal            	       2	   1403290 ns/op	        90.00 instructions
PASS
ok  	reticle	0.672s
pkg: reticle/internal/sat
BenchmarkSolve 	     100	     12345 ns/op
ok  	reticle/internal/sat	0.1s
pkg: reticle/internal/server
BenchmarkServeCold   	      30	   1238234 ns/op
BenchmarkServeCached 	      30	     67359 ns/op
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
	fig4 := base.Benchmarks[0]
	if fig4.Name != "BenchmarkFigure4" || fig4.N != 1 || fig4.NsPerOp != 15180144 || fig4.Pkg != "reticle" {
		t.Errorf("fig4 = %+v", fig4)
	}
	ta := base.Benchmarks[1]
	if ta.Name != "BenchmarkTensorAdd/n64-8" {
		t.Errorf("name = %q", ta.Name)
	}
	if ta.Metrics["compile-speedup-base(x)"] != 12.97 || ta.Metrics["run-speedup-base(x)"] != 1.363 {
		t.Errorf("metrics = %v", ta.Metrics)
	}
	sel := base.Benchmarks[2]
	if sel.N != 2 || sel.Metrics["instructions"] != 90 {
		t.Errorf("sel = %+v", sel)
	}
	sat := base.Benchmarks[3]
	if sat.Pkg != "reticle/internal/sat" || sat.N != 100 || sat.NsPerOp != 12345 {
		t.Errorf("sat = %+v", sat)
	}
	// The compile-service pair rides in the same baseline so the cache's
	// cold/hit leverage is recorded per commit.
	cold, cached := base.Benchmarks[4], base.Benchmarks[5]
	if cold.Name != "BenchmarkServeCold" || cold.Pkg != "reticle/internal/server" {
		t.Errorf("cold = %+v", cold)
	}
	if cached.Name != "BenchmarkServeCached" || cached.NsPerOp != 67359 {
		t.Errorf("cached = %+v", cached)
	}
	if ratio := cold.NsPerOp / cached.NsPerOp; ratio < 2 {
		t.Errorf("sample cold/cached ratio %.1f implausibly low", ratio)
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
