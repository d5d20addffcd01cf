// Package eval regenerates the paper's evaluation (§7): every series of
// Figure 4 and Figure 13. For each benchmark and size it compiles the same
// intermediate program three ways —
//
//	base:    behavioral translation through the baseline toolchain
//	hint:    the same with (* use_dsp *) directives
//	reticle: the full Reticle pipeline
//
// — and records compile time (measured wall clock), run-time (critical
// path from the shared timing model), and LUT/DSP utilization.
package eval

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"reticle/internal/behav"
	"reticle/internal/bench"
	"reticle/internal/cascade"
	"reticle/internal/codegen"
	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/place"
	"reticle/internal/target/ultrascale"
	"reticle/internal/timing"
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
	// Device overrides the evaluation part.
	Device *device.Device
}

func (c Config) device() *device.Device {
	if c.Device != nil {
		return c.Device
	}
	return ultrascale.Device()
}

// TensorAddSizes, TensorDotSizes, and FSMSizes are the x-axes of Fig. 13.
var (
	TensorAddSizes = []int{64, 128, 256, 512}
	TensorDotSizes = []int{3, 9, 18, 36}
	FSMSizes       = []int{3, 5, 7, 9}
	Figure4Sizes   = []int{8, 16, 32, 64, 128, 256, 512, 1024}
)

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

// toolbox caches the compiled pattern library and cascade metadata: the
// compiler loads its target description once, not once per program.
var toolbox struct {
	once sync.Once
	lib  *isel.Library
	cas  map[string]cascade.Variants
	err  error
}

func loadToolbox() (*isel.Library, map[string]cascade.Variants, error) {
	toolbox.once.Do(func() {
		toolbox.lib, toolbox.err = isel.NewLibrary(ultrascale.Target())
		toolbox.cas = ultrascale.Cascades()
	})
	return toolbox.lib, toolbox.cas, toolbox.err
}

// ReticleCompile runs the measured Reticle pipeline on a program.
func ReticleCompile(f *ir.Func, cfg Config) (Row, error) {
	dev := cfg.device()
	target := ultrascale.Target()
	lib, cas, err := loadToolbox()
	if err != nil {
		return Row{}, err
	}

	t0 := time.Now()
	af, err := isel.SelectWithLibrary(f, lib, isel.Options{})
	if err != nil {
		return Row{}, err
	}
	af, _, err = cascade.Apply(af, target, cascade.Options{Cascades: cas, MaxChain: dev.Height})
	if err != nil {
		return Row{}, err
	}
	placed, err := place.Place(af, dev, place.Options{Shrink: cfg.Shrink})
	if err != nil {
		return Row{}, err
	}
	_, stats, err := codegen.Generate(placed.Fn, target)
	if err != nil {
		return Row{}, err
	}
	dur := time.Since(t0)

	rep, err := timing.Analyze(placed.Fn, target, dev, timing.DefaultOptions())
	if err != nil {
		return Row{}, err
	}
	return Row{
		Lang:    "reticle",
		Compile: dur,
		RunNs:   rep.CriticalNs,
		Luts:    stats.Luts,
		Dsps:    stats.Dsps,
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

	res, err := vivado.Compile(bf, cfg.device(), vivado.Options{Hint: hint, Anneal: cfg.Anneal})
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
				row, err = ReticleCompile(f, cfg)
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
	dev := cfg.device()
	var rows []Fig4Row
	for _, n := range sizes {
		behavF, err := bench.DspAdd(n)
		if err != nil {
			return nil, err
		}
		// Utilization needs synthesis only, not placement.
		net, err := vivado.Synthesize(behavF, dev, true)
		if err != nil {
			return nil, err
		}

		structF, err := bench.DspAddVectorized(n)
		if err != nil {
			return nil, err
		}
		target := ultrascale.Target()
		af, err := isel.Select(structF, target, isel.Options{})
		if err != nil {
			return nil, err
		}
		st, err := isel.Summarize(af, target)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig4Row{
			N:          n,
			BehavDsps:  net.DspsUsed,
			BehavLuts:  net.LutsUsed,
			StructDsps: st.DspInstrs,
			StructLuts: 0, // the vectorized structural version needs no LUTs
		})
	}
	return rows, nil
}

// Speedups summarizes one benchmark size: baseline-over-Reticle compile
// and run-time ratios, as Fig. 13's left two plots report.
type Speedups struct {
	Bench, Size   string
	CompileVsBase float64
	CompileVsHint float64
	RunVsBase     float64
	RunVsHint     float64
	ReticleLuts   int
	ReticleDsps   int
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
			Bench:         k.bench,
			Size:          k.size,
			CompileVsBase: float64(base.Compile) / float64(ret.Compile),
			CompileVsHint: float64(hint.Compile) / float64(ret.Compile),
			RunVsBase:     base.RunNs / ret.RunNs,
			RunVsHint:     hint.RunNs / ret.RunNs,
			ReticleLuts:   ret.Luts,
			ReticleDsps:   ret.Dsps,
		})
	}
	return out
}

// FormatRows renders rows as an aligned table, one line per measurement.
func FormatRows(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %-8s %12s %10s %8s %6s\n",
		"bench", "size", "lang", "compile", "run(ns)", "LUTs", "DSPs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s %-8s %12s %10.3f %8d %6d\n",
			r.Bench, r.Size, r.Lang, r.Compile.Round(time.Microsecond),
			r.RunNs, r.Luts, r.Dsps)
	}
	return b.String()
}

// FormatSpeedups renders the Fig. 13 left-plot summaries.
func FormatSpeedups(sp []Speedups) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %14s %14s %12s %12s\n",
		"bench", "size", "compile/base", "compile/hint", "run/base", "run/hint")
	for _, s := range sp {
		fmt.Fprintf(&b, "%-10s %-6s %13.1fx %13.1fx %11.2fx %11.2fx\n",
			s.Bench, s.Size, s.CompileVsBase, s.CompileVsHint, s.RunVsBase, s.RunVsHint)
	}
	return b.String()
}

// FormatFig4 renders the Figure 4 table.
func FormatFig4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s\n",
		"N", "behav DSPs", "behav LUTs", "struct DSPs", "struct LUTs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %12d %12d %12d %12d\n",
			r.N, r.BehavDsps, r.BehavLuts, r.StructDsps, r.StructLuts)
	}
	return b.String()
}

// FormatChart renders the Fig. 13 left plots as ASCII bar charts: compile
// and run-time speedup over Reticle, log scale for compile (as the paper
// plots it), linear for run-time.
func FormatChart(sp []Speedups) string {
	var b strings.Builder
	const width = 44
	logBar := func(x float64) string {
		if x <= 1 {
			return "|"
		}
		n := int(math.Log10(x) / 3.0 * width) // full width at 1000x
		if n < 1 {
			n = 1
		}
		if n > width {
			n = width
		}
		return strings.Repeat("#", n)
	}
	linBar := func(x float64) string {
		n := int(x / 3.0 * width) // full width at 3x
		if n < 1 {
			n = 1
		}
		if n > width {
			n = width
		}
		return strings.Repeat("#", n)
	}
	b.WriteString("compile speedup over reticle (log scale, full bar = 1000x)\n")
	for _, s := range sp {
		fmt.Fprintf(&b, "  %-6s base %-*s %6.1fx\n", s.Size, width, logBar(s.CompileVsBase), s.CompileVsBase)
		fmt.Fprintf(&b, "  %-6s hint %-*s %6.1fx\n", "", width, logBar(s.CompileVsHint), s.CompileVsHint)
	}
	b.WriteString("run-time speedup over reticle (linear, full bar = 3x; <1 means reticle slower)\n")
	for _, s := range sp {
		fmt.Fprintf(&b, "  %-6s base %-*s %6.2fx\n", s.Size, width, linBar(s.RunVsBase), s.RunVsBase)
		fmt.Fprintf(&b, "  %-6s hint %-*s %6.2fx\n", "", width, linBar(s.RunVsHint), s.RunVsHint)
	}
	return b.String()
}
