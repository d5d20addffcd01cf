// Package eval regenerates the paper's evaluation (§7): every series of
// Figure 4 and Figure 13. For each benchmark and size it compiles the same
// intermediate program three ways —
//
//	base:    behavioral translation through the baseline toolchain
//	hint:    the same with (* use_dsp *) directives
//	reticle: the compiler the repo serves (reticle.Compiler → pipeline.Compile)
//
// — and records compile time (measured wall clock), run-time (critical
// path from the shared timing model), and LUT/DSP utilization. Sections
// renders the result as the Markdown tables EXPERIMENTS.md embeds.
package eval

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"reticle"
	"reticle/internal/behav"
	"reticle/internal/bench"
	"reticle/internal/ir"
	"reticle/internal/target/ultrascale"
	"reticle/internal/vfront"
	"reticle/internal/vivado"
)

// Langs are the three compared configurations, in the paper's order.
var Langs = []string{"base", "hint", "reticle"}

// Row is one measurement: a benchmark at a size under one configuration.
type Row struct {
	Bench   string
	Size    string
	Lang    string
	Compile time.Duration
	RunNs   float64
	Luts    int
	Dsps    int
}

// Config tunes the harness.
type Config struct {
	// Anneal overrides the baseline placement schedule (tests shorten it).
	Anneal vivado.AnnealOptions
	// Shrink enables Reticle's optional area compaction.
	Shrink bool
}

// compiler builds the Reticle side of every comparison: the bundled
// UltraScale-like target and evaluation part, as the service compiles.
func (cfg Config) compiler() (*reticle.Compiler, error) {
	return reticle.NewCompilerWith(reticle.Options{Shrink: cfg.Shrink})
}

// Figure4Sizes is the x-axis of Fig. 4.
var Figure4Sizes = []int{8, 16, 32, 64, 128, 256, 512, 1024}

// Panels are the benchmarks of Fig. 13 with their x-axes, in the paper's
// order.
var Panels = []struct {
	Name  string
	Sizes []int
}{
	{"tensoradd", []int{64, 128, 256, 512}},
	{"tensordot", []int{3, 9, 18, 36}},
	{"fsm", []int{3, 5, 7, 9}},
}

// Program builds the benchmark program for a benchmark name and size.
func Program(benchName string, size int) (*ir.Func, error) {
	switch benchName {
	case "tensoradd":
		return bench.TensorAdd(size)
	case "tensordot":
		return bench.TensorDot(5, size)
	case "fsm":
		return bench.FSM(size)
	case "dspadd":
		return bench.DspAdd(size)
	default:
		return nil, fmt.Errorf("eval: unknown benchmark %q", benchName)
	}
}

// SizeLabel renders a size the way the paper's axes do.
func SizeLabel(benchName string, size int) string {
	if benchName == "tensordot" {
		return fmt.Sprintf("5x%d", size)
	}
	return fmt.Sprintf("%d", size)
}

// ReticleCompile measures one served compile of a program: the row is
// read off the artifact, so Compile covers selection through rendered
// Verilog (Artifact.CompileDur).
func ReticleCompile(c *reticle.Compiler, f *ir.Func) (Row, error) {
	art, err := c.Compile(f)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Lang:    "reticle",
		Compile: art.CompileDur,
		RunNs:   art.CriticalNs,
		Luts:    art.LUTs,
		Dsps:    art.DSPs,
	}, nil
}

// BaselineCompile runs the simulated traditional toolchain on a program,
// through the full §7 methodology: the program is first emitted as
// behavioral Verilog text by the translation backend (base or hint
// flavor), then parsed back by the behavioral front end — flattening any
// vector structure, as real HDL input does — and finally synthesized and
// placed. The measured compile time covers parsing onward, i.e. what the
// traditional tool does with its Verilog input.
func BaselineCompile(f *ir.Func, hint bool, cfg Config) (Row, error) {
	flavor := behav.Base
	lang := "base"
	if hint {
		flavor = behav.Hint
		lang = "hint"
	}
	m, err := behav.Translate(f, flavor)
	if err != nil {
		return Row{}, err
	}
	src := m.String()

	t0 := time.Now()
	bf, err := vfront.Parse(src)
	if err != nil {
		return Row{}, fmt.Errorf("eval: baseline front end: %w", err)
	}
	parseDur := time.Since(t0)

	res, err := vivado.Compile(bf, ultrascale.Device(), vivado.Options{Hint: hint, Anneal: cfg.Anneal})
	if err != nil {
		return Row{}, err
	}
	return Row{
		Lang:    lang,
		Compile: parseDur + res.SynthDur + res.PlaceDur,
		RunNs:   res.CriticalNs,
		Luts:    res.LutsUsed,
		Dsps:    res.DspsUsed,
	}, nil
}

// Figure13 produces all rows for one benchmark's panel of Fig. 13.
func Figure13(benchName string, sizes []int, cfg Config) ([]Row, error) {
	c, err := cfg.compiler()
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, size := range sizes {
		f, err := Program(benchName, size)
		if err != nil {
			return nil, err
		}
		for _, lang := range Langs {
			var row Row
			switch lang {
			case "reticle":
				row, err = ReticleCompile(c, f)
			default:
				row, err = BaselineCompile(f, lang == "hint", cfg)
			}
			if err != nil {
				return nil, fmt.Errorf("eval: %s %s %s: %w",
					benchName, SizeLabel(benchName, size), lang, err)
			}
			row.Bench = benchName
			row.Size = SizeLabel(benchName, size)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig4Row is one point of Figure 4: behavioral (hint) vs hand-optimized
// structural (vectorized) utilization for the Fig. 3 program.
type Fig4Row struct {
	N                      int
	BehavDsps, BehavLuts   int
	StructDsps, StructLuts int
}

// Figure4 sweeps the Fig. 3 program over loop bounds.
func Figure4(sizes []int, cfg Config) ([]Fig4Row, error) {
	c, err := cfg.compiler()
	if err != nil {
		return nil, err
	}
	var rows []Fig4Row
	for _, n := range sizes {
		behavF, err := bench.DspAdd(n)
		if err != nil {
			return nil, err
		}
		// Utilization needs synthesis only, not placement.
		net, err := vivado.Synthesize(behavF, ultrascale.Device(), true)
		if err != nil {
			return nil, err
		}

		structF, err := bench.DspAddVectorized(n)
		if err != nil {
			return nil, err
		}
		st, err := ReticleCompile(c, structF)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig4Row{
			N:          n,
			BehavDsps:  net.DspsUsed,
			BehavLuts:  net.LutsUsed,
			StructDsps: st.Dsps,
			StructLuts: st.Luts,
		})
	}
	return rows, nil
}

// Speedups summarizes one benchmark size: the three rows and the
// baseline-over-Reticle compile and run-time ratios, as Fig. 13's left
// two plots report.
type Speedups struct {
	Bench, Size         string
	Base, Hint, Reticle Row
	CompileVsBase       float64
	CompileVsHint       float64
	RunVsBase           float64
	RunVsHint           float64
}

// Summarize folds rows (one benchmark) into per-size speedups.
func Summarize(rows []Row) []Speedups {
	type key struct{ bench, size string }
	byKey := map[key]map[string]Row{}
	var order []key
	for _, r := range rows {
		k := key{r.Bench, r.Size}
		if byKey[k] == nil {
			byKey[k] = map[string]Row{}
			order = append(order, k)
		}
		byKey[k][r.Lang] = r
	}
	var out []Speedups
	for _, k := range order {
		m := byKey[k]
		ret, base, hint := m["reticle"], m["base"], m["hint"]
		if ret.Compile == 0 {
			continue
		}
		out = append(out, Speedups{
			Bench: k.bench, Size: k.size,
			Base: base, Hint: hint, Reticle: ret,
			CompileVsBase: float64(base.Compile) / float64(ret.Compile),
			CompileVsHint: float64(hint.Compile) / float64(ret.Compile),
			RunVsBase:     base.RunNs / ret.RunNs,
			RunVsHint:     hint.RunNs / ret.RunNs,
		})
	}
	return out
}

// Table is one generated Markdown table. Timed marks a table of
// wall-clock cells: it is regenerated with every run and never diffed;
// every other table repeats to the digit and is pinned by
// TestExperimentsTablesCurrent.
type Table struct {
	Title string
	Timed bool
	Head  []string
	Rows  [][]string
}

// String renders the table: a title line, then header, rule and rows.
func (t Table) String() string {
	var b strings.Builder
	line := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	b.WriteString(t.Title + ":\n\n")
	line(t.Head)
	b.WriteString(strings.Repeat("|---", len(t.Head)) + "|\n")
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Section is one generated block of EXPERIMENTS.md, delimited by Begin
// and End; Args are the reticle-bench arguments that print it.
type Section struct {
	Args   string
	Tables []Table
}

// End closes every generated block.
const End = "<!-- end generated -->\n"

// Begin is the marker line that opens the section.
func (s Section) Begin() string {
	return "<!-- generated by: go run ./cmd/reticle-bench " + s.Args + " -->\n"
}

// String renders the section, markers included, ready to paste.
func (s Section) String() string {
	var b strings.Builder
	b.WriteString(s.Begin())
	for _, t := range s.Tables {
		b.WriteString("\n" + t.String())
	}
	b.WriteString("\n" + End)
	return b.String()
}

// Runs is how many times a published panel is compiled.
const Runs = 5

// Sections measures the requested figures — fig is "4", "13" or "all",
// and a non-empty benchName keeps one panel of Fig. 13 — and renders one
// section per figure panel. Each panel is compiled runs times: timed
// cells are the median with the range, everything else is the first run.
func Sections(fig, benchName string, cfg Config, runs int) ([]Section, error) {
	if fig != "4" && fig != "13" && fig != "all" {
		return nil, fmt.Errorf("eval: unknown figure %q (want 4, 13 or all)", fig)
	}
	suffix := ""
	if cfg.Shrink {
		suffix = " -shrink"
	}
	var out []Section
	if fig != "13" {
		rows, err := Figure4(Figure4Sizes, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, Section{Args: "-fig 4" + suffix, Tables: []Table{fig4Table(rows)}})
	}
	known := benchName == ""
	for _, p := range Panels {
		known = known || p.Name == benchName
		if fig == "4" || (benchName != "" && p.Name != benchName) {
			continue
		}
		var sp [][]Speedups
		for i := 0; i < runs; i++ {
			rows, err := Figure13(p.Name, p.Sizes, cfg)
			if err != nil {
				return nil, err
			}
			sp = append(sp, Summarize(rows))
		}
		out = append(out, Section{Args: "-fig 13 -bench " + p.Name + suffix, Tables: fig13Tables(p.Name, sp)})
	}
	if !known {
		return nil, fmt.Errorf("eval: unknown Fig. 13 benchmark %q", benchName)
	}
	return out, nil
}

func fig4Table(rows []Fig4Row) Table {
	t := Table{
		Title: "Figure 4, utilization",
		Head:  []string{"N", "behav DSPs", "behav LUTs", "struct DSPs", "struct LUTs"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{strconv.Itoa(r.N), strconv.Itoa(r.BehavDsps), strconv.Itoa(r.BehavLuts), strconv.Itoa(r.StructDsps), strconv.Itoa(r.StructLuts)})
	}
	return t
}

// fig13Tables renders one panel from its runs (each the Summarize of one
// Figure13 call): run time and utilization from the first, compile time
// across all of them.
func fig13Tables(name string, runs [][]Speedups) []Table {
	shape := Table{
		Title: name + ", run time and utilization",
		Head: []string{"size", "run ×base", "run ×hint", "reticle ns", "base ns", "hint ns",
			"reticle LUT/DSP", "base LUT/DSP", "hint LUT/DSP"},
	}
	timed := Table{
		Title: fmt.Sprintf("%s, compile time: median of %d runs (min–max)", name, len(runs)),
		Timed: true,
		Head:  []string{"size", "compile ×base", "compile ×hint", "reticle ms", "base ms", "hint ms"},
	}
	util := func(r Row) string { return fmt.Sprintf("%d / %d", r.Luts, r.Dsps) }
	ms := func(r Row) float64 { return float64(r.Compile) / float64(time.Millisecond) }
	for i, s := range runs[0] {
		shape.Rows = append(shape.Rows, []string{s.Size,
			fmt.Sprintf("%.2f", s.RunVsBase), fmt.Sprintf("%.2f", s.RunVsHint),
			fmt.Sprintf("%.3f", s.Reticle.RunNs), fmt.Sprintf("%.3f", s.Base.RunNs), fmt.Sprintf("%.3f", s.Hint.RunNs),
			util(s.Reticle), util(s.Base), util(s.Hint)})
		across := func(of func(Speedups) float64, format string) string {
			xs := make([]float64, len(runs))
			for r := range runs {
				xs[r] = of(runs[r][i])
			}
			sort.Float64s(xs)
			return fmt.Sprintf(format+" ("+format+"–"+format+")", xs[len(xs)/2], xs[0], xs[len(xs)-1])
		}
		timed.Rows = append(timed.Rows, []string{s.Size,
			across(func(s Speedups) float64 { return s.CompileVsBase }, "%.1f"),
			across(func(s Speedups) float64 { return s.CompileVsHint }, "%.1f"),
			across(func(s Speedups) float64 { return ms(s.Reticle) }, "%.2f"),
			across(func(s Speedups) float64 { return ms(s.Base) }, "%.1f"),
			across(func(s Speedups) float64 { return ms(s.Hint) }, "%.1f")})
	}
	return []Table{shape, timed}
}
