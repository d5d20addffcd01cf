// Package cli implements the reticle command-line driver. It lives apart
// from cmd/reticle so the commands are unit-testable: Run takes argument
// and stream parameters and returns an exit code.
package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"reticle"
	"reticle/internal/interp"
	"reticle/internal/ir"
	"reticle/internal/irgen"
)

// Run executes one CLI invocation. args excludes the program name.
func Run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "compile":
		err = cmdCompile(args[1:], stdin, stdout, stderr)
	case "interp":
		err = cmdInterp(args[1:], stdin, stdout)
	case "expand":
		err = cmdExpand(args[1:], stdin, stdout)
	case "behav":
		err = cmdBehav(args[1:], stdin, stdout)
	case "verify":
		err = cmdVerify(args[1:], stdin, stdout)
	case "opt":
		err = cmdOpt(args[1:], stdin, stdout)
	case "explore":
		err = cmdExplore(args[1:], stdin, stdout, stderr)
	case "target":
		err = cmdTarget(args[1:], stdout, stderr)
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "reticle: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "reticle:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  reticle compile [-emit ir|asm|place|verilog|stats|timing] [-shrink] [-no-cascade] [-greedy]
                  [-jobs n] [-timeout d] [-max-steps n] [-solver-timeout d] file.ret [file.ret ...]
  reticle interp  [-cycles n] [-set name=v1,v2,...]... [-vcd file] file.ret
  reticle expand  file.rasm
  reticle behav   [-hint] file.ret
  reticle opt     [-vectorize n] [-pipeline] [-bind lut|dsp|any] file.ret
  reticle explore [-family ultrascale|agilex] [-jobs n] [-max-variants n] [-timeout d]
                  [-shrink] [-json] file.ret
  reticle verify  [-cycles n] [-seed n] file.ret
  reticle target  [-grep substr]
`)
}

func readSource(args []string, stdin io.Reader) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("expected exactly one input file")
	}
	if args[0] == "-" {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return "", err
		}
		return string(data), nil
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func cmdCompile(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	emit := fs.String("emit", "verilog", "stage to print: ir|asm|place|verilog|stats|timing")
	shrink := fs.Bool("shrink", false, "enable area-compaction shrinking passes")
	noCascade := fs.Bool("no-cascade", false, "disable DSP cascade layout optimization")
	greedy := fs.Bool("greedy", false, "greedy (maximal munch) instruction selection")
	jobs := fs.Int("jobs", 1, "compile files concurrently with this many workers")
	timeout := fs.Duration("timeout", 0, "per-file compile timeout (0 = none)")
	maxSteps := fs.Int("max-steps", 0, "placement solver step budget; past it, degrade to greedy fallback (0 = default)")
	solverTimeout := fs.Duration("solver-timeout", 0, "placement solver time budget; past it, degrade to greedy fallback (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *emit {
	case "ir", "asm", "place", "verilog", "timing", "stats":
	default:
		return fmt.Errorf("unknown -emit %q", *emit)
	}
	c, err := reticle.NewCompilerWith(reticle.Options{
		Shrink:         *shrink,
		NoCascade:      *noCascade,
		Greedy:         *greedy,
		MaxSolverSteps: *maxSteps,
		SolverTimeout:  *solverTimeout,
	})
	if err != nil {
		return err
	}

	files := fs.Args()
	if len(files) == 1 && *jobs <= 1 {
		// Single-file serial path: output is the bare emitted stage.
		src, err := readSource(files, stdin)
		if err != nil {
			return err
		}
		art, err := c.CompileString(src)
		if err != nil {
			return err
		}
		if art.Degraded {
			fmt.Fprintf(stderr, "reticle: warning: degraded placement (%s)\n", art.DegradedReason)
		}
		return emitArtifact(stdout, *emit, art)
	}
	if len(files) == 0 {
		return fmt.Errorf("expected at least one input file")
	}

	// Batch path: compile every file through the shared library with
	// bounded workers; per-file failures never abort the other files.
	batchJobs := make([]reticle.BatchJob, len(files))
	parseErrs := make([]error, len(files))
	for i, name := range files {
		src, err := readSource([]string{name}, stdin)
		if err != nil {
			parseErrs[i] = err
			continue
		}
		f, err := reticle.ParseIR(src)
		if err != nil {
			parseErrs[i] = err
			continue
		}
		batchJobs[i] = reticle.BatchJob{Name: name, Func: f}
	}
	results, stats, err := c.CompileBatchJobs(context.Background(), batchJobs,
		reticle.BatchOptions{Jobs: *jobs, KernelTimeout: *timeout})
	if err != nil {
		return err
	}
	failed := 0
	for i, name := range files {
		fmt.Fprintf(stdout, "== %s ==\n", name)
		switch {
		case parseErrs[i] != nil:
			failed++
			fmt.Fprintf(stdout, "error: %v\n", parseErrs[i])
		case !results[i].Ok():
			failed++
			fmt.Fprintf(stdout, "error: %v\n", results[i].Err)
		default:
			if results[i].Artifact.Degraded {
				fmt.Fprintf(stdout, "warning: degraded placement (%s)\n", results[i].Artifact.DegradedReason)
			}
			if err := emitArtifact(stdout, *emit, results[i].Artifact); err != nil {
				return err
			}
		}
	}
	if *emit == "stats" {
		fmt.Fprintf(stdout, "== batch ==\n")
		fmt.Fprintf(stdout, "kernels   %d (%d failed)\n", stats.Kernels, failed)
		fmt.Fprintf(stdout, "wall      %s\n", stats.Wall)
		fmt.Fprintf(stdout, "rate      %.1f kernels/sec\n", stats.KernelsPerSec)
		fmt.Fprintf(stdout, "select    %s\n", stats.Stages.Select)
		fmt.Fprintf(stdout, "place     %s\n", stats.Stages.Place)
		fmt.Fprintf(stdout, "codegen   %s\n", stats.Stages.Codegen)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d files failed", failed, len(files))
	}
	return nil
}

// emitArtifact prints one compiled artifact at the requested stage.
func emitArtifact(stdout io.Writer, emit string, art *reticle.Artifact) error {
	switch emit {
	case "ir":
		fmt.Fprint(stdout, art.IR.String())
	case "asm":
		fmt.Fprint(stdout, art.Asm.String())
	case "place":
		fmt.Fprint(stdout, art.Placed.String())
	case "verilog":
		fmt.Fprint(stdout, art.Verilog)
	case "timing":
		fmt.Fprintf(stdout, "critical path: %.3f ns (%.1f MHz)\n", art.CriticalNs, art.FMaxMHz)
		for i, step := range art.CriticalPath {
			fmt.Fprintf(stdout, "  %2d. %s\n", i, step)
		}
	case "stats":
		fmt.Fprintf(stdout, "luts      %d\n", art.LUTs)
		fmt.Fprintf(stdout, "dsps      %d\n", art.DSPs)
		fmt.Fprintf(stdout, "ffs       %d\n", art.FFs)
		fmt.Fprintf(stdout, "carries   %d\n", art.Carries)
		fmt.Fprintf(stdout, "critical  %.3f ns\n", art.CriticalNs)
		fmt.Fprintf(stdout, "fmax      %.1f MHz\n", art.FMaxMHz)
		fmt.Fprintf(stdout, "compile   %s\n", art.CompileDur)
		fmt.Fprintf(stdout, "cascades  %d\n", art.CascadeChains)
	default:
		return fmt.Errorf("unknown -emit %q", emit)
	}
	return nil
}

// cmdExplore sweeps one kernel's variant lattice and prints every
// variant's score plus the Pareto frontier.
func cmdExplore(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	family := fs.String("family", "ultrascale", "target family: ultrascale|agilex")
	jobs := fs.Int("jobs", 0, "concurrent variant compiles (0 = runtime default)")
	maxVariants := fs.Int("max-variants", 0, "variant lattice bound (0 = default)")
	timeout := fs.Duration("timeout", 0, "per-variant compile timeout (0 = none)")
	shrink := fs.Bool("shrink", false, "enable area-compaction shrinking passes")
	emitJSON := fs.Bool("json", false, "emit the full sweep result as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	copts := reticle.Options{Shrink: *shrink}
	switch *family {
	case "ultrascale":
	case "agilex":
		copts.Target = reticle.Agilex()
		copts.Device = reticle.AGF014()
	default:
		return fmt.Errorf("unknown -family %q", *family)
	}
	src, err := readSource(fs.Args(), stdin)
	if err != nil {
		return err
	}
	f, err := reticle.ParseIR(src)
	if err != nil {
		return err
	}
	c, err := reticle.NewCompilerWith(copts)
	if err != nil {
		return err
	}
	res, err := c.Explore(context.Background(), f, reticle.ExploreOptions{
		Jobs:          *jobs,
		MaxVariants:   *maxVariants,
		KernelTimeout: *timeout,
	})
	if err != nil {
		return err
	}
	if *emitJSON {
		return writeExploreJSON(stdout, f.Name, *family, res)
	}

	onFrontier := make(map[string]bool)
	for _, fp := range res.Frontier {
		onFrontier[fp.ID] = true
	}
	fmt.Fprintf(stdout, "== %s: %d variants ==\n", f.Name, len(res.Variants))
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\tcritical\tluts\tcarries\tdsps\tffs\t")
	for _, vr := range res.Variants {
		mark := ""
		if onFrontier[vr.ID] {
			mark = "*"
		}
		if !vr.Ok() {
			fmt.Fprintf(tw, "%s\terror: %v\t\t\t\t\t\n", vr.ID, vr.Err)
			continue
		}
		fmt.Fprintf(tw, "%s\t%.3f ns\t%d\t%d\t%d\t%d\t%s\n",
			vr.ID, vr.Metrics.CriticalNs, vr.Metrics.Luts, vr.Metrics.Carries,
			vr.Metrics.Dsps, vr.Metrics.FFs, mark)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "== frontier: %d non-dominated (*) ==\n", len(res.Frontier))
	if res.Partial {
		fmt.Fprintf(stderr, "reticle: warning: partial sweep (%d of %d variants failed)\n",
			res.Stats.Failed, res.Stats.Variants)
	}
	return nil
}

// writeExploreJSON renders a sweep in the same shape as the service's
// /explore response body (without the server-side stats attribution).
func writeExploreJSON(stdout io.Writer, name, family string, res *reticle.ExploreResult) error {
	type variantJSON struct {
		ID      string                  `json:"id"`
		Desc    string                  `json:"desc,omitempty"`
		OK      bool                    `json:"ok"`
		Error   string                  `json:"error,omitempty"`
		Metrics *reticle.ExploreMetrics `json:"metrics,omitempty"`
	}
	out := struct {
		Name     string                  `json:"name"`
		Family   string                  `json:"family"`
		Variants []variantJSON           `json:"variants"`
		Frontier []reticle.FrontierPoint `json:"frontier"`
		Partial  bool                    `json:"partial"`
	}{Name: name, Family: family, Partial: res.Partial}
	for _, vr := range res.Variants {
		vj := variantJSON{ID: vr.ID, Desc: vr.Desc, OK: vr.Ok()}
		if vr.Ok() {
			m := vr.Metrics
			vj.Metrics = &m
		} else {
			vj.Error = vr.Err.Error()
		}
		out.Variants = append(out.Variants, vj)
	}
	out.Frontier = res.Frontier
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

type setFlags []string

func (s *setFlags) String() string     { return strings.Join(*s, ";") }
func (s *setFlags) Set(v string) error { *s = append(*s, v); return nil }

func cmdInterp(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("interp", flag.ContinueOnError)
	cycles := fs.Int("cycles", 0, "number of cycles (default: longest -set series)")
	vcdPath := fs.String("vcd", "", "write the run as a VCD waveform to this file")
	var sets setFlags
	fs.Var(&sets, "set", "input series, e.g. -set a=1,2,3 (repeatable; last value holds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := readSource(fs.Args(), stdin)
	if err != nil {
		return err
	}
	f, err := reticle.ParseIR(src)
	if err != nil {
		return err
	}
	series := map[string][]int64{}
	n := *cycles
	for _, s := range sets {
		name, vals, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("bad -set %q", s)
		}
		if _, ok := f.TypeOf(name); !ok {
			return fmt.Errorf("-set %q: no such input", name)
		}
		for _, v := range strings.Split(vals, ",") {
			x, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return fmt.Errorf("bad -set %q: %v", s, err)
			}
			series[name] = append(series[name], x)
		}
		if len(series[name]) > n {
			n = len(series[name])
		}
	}
	if n == 0 {
		n = 1
	}
	trace := make(reticle.Trace, n)
	for i := range trace {
		step := reticle.Step{}
		for _, p := range f.Inputs {
			vals := series[p.Name]
			var v int64
			switch {
			case len(vals) == 0:
				v = 0
			case i < len(vals):
				v = vals[i]
			default:
				v = vals[len(vals)-1]
			}
			step[p.Name] = valueOf(p.Type, v)
		}
		trace[i] = step
	}
	out, err := reticle.Interpret(f, trace)
	if err != nil {
		return err
	}
	for i, step := range out {
		fmt.Fprintf(stdout, "cycle %d:", i)
		for _, p := range f.Outputs {
			fmt.Fprintf(stdout, " %s=%s", p.Name, step[p.Name])
		}
		fmt.Fprintln(stdout)
	}
	if *vcdPath != "" {
		file, err := os.Create(*vcdPath)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := writeVCD(file, f, interp.Trace(trace), interp.Trace(out)); err != nil {
			return err
		}
	}
	return nil
}

func valueOf(t ir.Type, v int64) ir.Value {
	if t.IsBool() {
		return ir.BoolValue(v != 0)
	}
	if t.IsVector() {
		vals := make([]int64, t.Lanes())
		for i := range vals {
			vals[i] = v
		}
		return ir.VectorValue(t, vals...)
	}
	return ir.ScalarValue(t, v)
}

func cmdExpand(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("expand", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := readSource(fs.Args(), stdin)
	if err != nil {
		return err
	}
	af, err := reticle.ParseAsm(src)
	if err != nil {
		return err
	}
	f, err := reticle.ExpandAsm(af, reticle.UltraScale())
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, f.String())
	return nil
}

func cmdBehav(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("behav", flag.ContinueOnError)
	hint := fs.Bool("hint", false, "emit vendor use_dsp hints")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := readSource(fs.Args(), stdin)
	if err != nil {
		return err
	}
	f, err := reticle.ParseIR(src)
	if err != nil {
		return err
	}
	v, err := reticle.BehavioralVerilog(f, *hint)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, v)
	return nil
}

// cmdOpt exposes the §8 front-end passes: constant folding, CSE, DCE,
// optional vectorization and pipelining, and resource binding.
func cmdOpt(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("opt", flag.ContinueOnError)
	vectorize := fs.Int("vectorize", 0, "combine independent scalars into N-lane vectors")
	pipeline := fs.Bool("pipeline", false, "register every compute result")
	enable := fs.String("enable", "", "bool value used as pipeline clock enable")
	bind := fs.String("bind", "", "rebind resources: lut|dsp|any")
	noClean := fs.Bool("no-clean", false, "skip fold/CSE/DCE cleanup")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := readSource(fs.Args(), stdin)
	if err != nil {
		return err
	}
	f, err := reticle.ParseIR(src)
	if err != nil {
		return err
	}
	if !*noClean {
		if f, err = reticle.Optimize(f); err != nil {
			return err
		}
	}
	if *vectorize > 0 {
		if f, _, err = reticle.Vectorize(f, *vectorize); err != nil {
			return err
		}
	}
	if *pipeline {
		if f, _, err = reticle.Pipeline(f, *enable); err != nil {
			return err
		}
	}
	switch *bind {
	case "":
	case "lut":
		if f, err = reticle.Bind(f, reticle.PreferLut); err != nil {
			return err
		}
	case "dsp":
		if f, err = reticle.Bind(f, reticle.PreferDsp); err != nil {
			return err
		}
	case "any":
		if f, err = reticle.Bind(f, reticle.Unbind); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -bind %q", *bind)
	}
	fmt.Fprint(stdout, f.String())
	return nil
}

// cmdVerify is translation validation as a command: compile the program,
// expand the selected assembly back to IR via its TDL semantics, and
// compare traces against the source on random inputs.
func cmdVerify(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	cycles := fs.Int("cycles", 50, "number of random cycles to compare")
	seed := fs.Int64("seed", 1, "random seed for input traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := readSource(fs.Args(), stdin)
	if err != nil {
		return err
	}
	f, err := reticle.ParseIR(src)
	if err != nil {
		return err
	}
	c, err := reticle.NewCompiler()
	if err != nil {
		return err
	}
	art, err := c.Compile(f)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	trace := interp.Trace(irgen.RandomTrace(rng, f, *cycles))
	want, err := reticle.Interpret(f, reticle.Trace(trace))
	if err != nil {
		return err
	}
	got, err := reticle.InterpretAsm(art.Asm, c.Target(), reticle.Trace(trace))
	if err != nil {
		return err
	}
	for i := range want {
		for _, p := range f.Outputs {
			if !want[i][p.Name].Equal(got[i][p.Name]) {
				return fmt.Errorf("verify: cycle %d: %s = %s, source says %s",
					i, p.Name, got[i][p.Name], want[i][p.Name])
			}
		}
	}
	fmt.Fprintf(stdout, "verified: %d cycles, %d outputs, traces agree\n",
		*cycles, len(f.Outputs))
	return nil
}

func cmdTarget(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("target", flag.ContinueOnError)
	grep := fs.String("grep", "", "only definitions whose name contains this substring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	target := reticle.UltraScale()
	n := 0
	for _, d := range target.Defs() {
		if *grep != "" && !strings.Contains(d.Name, *grep) {
			continue
		}
		fmt.Fprint(stdout, d.String())
		fmt.Fprintln(stdout)
		n++
	}
	fmt.Fprintf(stderr, "%d definitions (target ultrascale)\n", n)
	return nil
}
