// Command reticle-load is the repository's benchmark: a single-process
// closed-loop load generator that launches the real reticle-serve and
// reticle-shard binaries on loopback, drives four seeded workloads over
// real sockets, checks the replies against the reference IR interpreter,
// and prints every metric by name and unit. A separate traced run
// attributes a request's wall time to the repository's modules. See
// ../README.md.
//
// Usage:
//
//	reticle-load -workload NAME -seed N -seconds S -trace 0|1   one run; last stdout line is the result object
//	reticle-load [-seconds S] [-seed N] [-repeat N] [-o FILE]    every workload, untraced then traced
//	reticle-load -smoke                                          the same in about a second per run (half-second windows)
//	reticle-load check A.json B.json                             compare two result files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "check" {
		os.Exit(checkMain(os.Args[2:]))
	}
	workloadName := flag.String("workload", "", "run this one workload and print the result object last (default: all four, untraced then traced)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives byte-identical requests")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "with -workload: 1 runs the traced variant and reports the per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny working sets, half-second windows: exercises every code path fast")
	repeat := flag.Int("repeat", 1, "without -workload: run the whole set this many times, seeds seed..seed+N-1, and report median and quartiles")
	out := flag.String("o", "", "without -workload: also write every run to this JSON file, for `reticle-load check`")
	root := flag.String("root", "", "repository root (default: found above the working directory)")
	binDir := flag.String("bin", "", "directory for the server binaries (default: ROOT/.bench_build/bin)")
	workDir := flag.String("work", "", "directory for temp dirs and trace.jsonl (default: ROOT/benchmark/out)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, options{
		workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace != 0,
		smoke: *smoke, repeat: *repeat, out: *out, root: *root, binDir: *binDir, workDir: *workDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "reticle-load:", err)
		code = 2
	}
	stop()
	os.Exit(code)
}

type options struct {
	workload              string
	seed                  int64
	seconds               float64
	trace, smoke          bool
	repeat                int
	out                   string
	root, binDir, workDir string
}

// resultFile is what -o writes and `check` reads.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

// run returns the exit code: 0 when every run was correct, 1 when any
// request or oracle check failed.
func run(ctx context.Context, o options) (int, error) {
	root := o.root
	if root == "" {
		var err error
		if root, err = findRoot("."); err != nil {
			return 2, err
		}
	}
	e := env{binDir: o.binDir, workDir: o.workDir, smoke: o.smoke}
	if e.binDir == "" {
		e.binDir = filepath.Join(root, ".bench_build", "bin")
	}
	if e.workDir == "" {
		e.workDir = filepath.Join(root, "benchmark", "out")
	}
	if o.smoke {
		o.seconds = 0.5
	}
	if o.seconds <= 0 || o.repeat < 1 {
		return 2, fmt.Errorf("-seconds and -repeat must be positive")
	}
	if err := buildServers(ctx, root, e.binDir); err != nil {
		return 2, err
	}

	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", o.workload)
		}
		res, err := runWorkload(ctx, e, w, o.seed, o.seconds, o.trace)
		if err != nil {
			return 2, err
		}
		printRun(res)
		fmt.Println(res.contractLine())
		return exitCode(res), nil
	}

	var file resultFile
	code := 0
	for rep := 0; rep < o.repeat; rep++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(ctx, e, w, o.seed+int64(rep), o.seconds, traced)
				if err != nil {
					return 2, err
				}
				printRun(res)
				file.Runs = append(file.Runs, res)
				code = max(code, exitCode(res))
			}
		}
	}
	if o.repeat > 1 {
		printSpread(file.Runs)
	}
	if o.out != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return 2, err
		}
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return 2, err
		}
	}
	return code, nil
}

func exitCode(r *runResult) int {
	if r.Correct {
		return 0
	}
	return 1
}

// printRun prints every metric of one run by name, with its unit.
func printRun(r *runResult) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s seed=%d seconds=%g %s: attempted=%d failed=%d correct=%t\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%-32s %16.4f %s\n", name, m.Value, m.Unit)
	}
	for _, f := range r.Failures {
		fmt.Printf("FAILURE: %s\n", f)
	}
}
