// Command reticle-benchjson converts `go test -bench` text output into a
// machine-readable JSON baseline, so CI can record a perf trajectory per
// commit and placement/selection regressions are a diff away instead of
// an anecdote.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | reticle-benchjson -sha $(git rev-parse HEAD) -o BENCH_<sha>.json
//
// Custom benchmark metrics (compile-speedup(x), reticle-DSPs, ...) are
// preserved under "metrics"; context lines (goos/goarch/cpu/pkg) are
// carried onto each benchmark entry.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one `Benchmark...` result line.
type Benchmark struct {
	Pkg     string             `json:"pkg,omitempty"`
	Name    string             `json:"name"`
	N       int64              `json:"n"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the whole converted run.
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
// Returns (nil, nil) for lines that merely start with "Benchmark" but do
// not follow the result shape.
func parseBenchLine(line string) (*Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return nil, nil
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, nil
	}
	b := &Benchmark{Name: fields[0], N: n}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", fields[i], err)
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = val
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
// core counts then pair up by name in reticle-benchcompare instead of
// sharing no benchmark at all.
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

func main() {
	sha := flag.String("sha", "", "commit hash to embed in the baseline")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	base, err := Parse(os.Stdin)
	if err != nil {
		fail(err)
	}
	base.SHA = *sha
	base.GoMaxProcs = stripProcSuffix(base.Benchmarks)
	base.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	if len(base.Benchmarks) == 0 {
		fail(fmt.Errorf("no benchmark results on stdin"))
	}

	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "reticle-benchjson: wrote %d benchmarks to %s\n", len(base.Benchmarks), *out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reticle-benchjson:", err)
	os.Exit(1)
}
