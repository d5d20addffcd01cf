// Benchmarks regenerating the paper's evaluation (§7). One benchmark per
// figure/panel:
//
//	BenchmarkFigure4            — Fig. 4a/4b utilization sweep
//	BenchmarkTensorAdd*         — Fig. 13a (compile both toolchains per size)
//	BenchmarkTensorDot*         — Fig. 13b
//	BenchmarkFSM*               — Fig. 13c
//	BenchmarkReticleCompile*    — the Reticle pipeline alone
//	BenchmarkBaselineCompile*   — the baseline toolchain alone
//	BenchmarkAblation*          — design-choice ablations (DESIGN.md §5)
//	BenchmarkPlace*             — the placement stage alone (DESIGN.md §10)
//
// Each Figure-13 benchmark reports the paper's headline metrics as custom
// units: compile-speedup(x), run-speedup(x) vs the base configuration.
// Absolute numbers depend on the host; the *shape* (who wins, by roughly
// what factor, where the crossovers fall) is the reproduction target —
// see EXPERIMENTS.md.
package reticle

import (
	"context"
	"fmt"
	"os"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/bench"
	"reticle/internal/device"
	"reticle/internal/eval"
	"reticle/internal/hintcache"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/place"
	"reticle/internal/stagecache"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
	"reticle/internal/vivado"
)

// benchAnneal is a mid-length schedule: long enough to keep the baseline's
// character, short enough for repeated benchmark iterations.
func benchAnneal() vivado.AnnealOptions {
	return vivado.AnnealOptions{Seed: 1, MovesPerCell: 500, MinMoves: 50_000}
}

func benchCfg() eval.Config {
	return eval.Config{Anneal: benchAnneal()}
}

// BenchmarkFigure4 regenerates the Fig. 4 utilization sweep (both panels).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure4(eval.Figure4Sizes, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if rows[len(rows)-1].BehavDsps != 360 {
			b.Fatal("saturation lost")
		}
	}
}

// figure13Panel benchmarks one size of one Fig. 13 panel: it compiles the
// program under all three configurations and reports speedups.
func figure13Panel(b *testing.B, benchName string, size int) {
	b.Helper()
	f, err := eval.Program(benchName, size)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	var ret, base, hint eval.Row
	for i := 0; i < b.N; i++ {
		if ret, err = eval.ReticleCompile(f, cfg); err != nil {
			b.Fatal(err)
		}
		if base, err = eval.BaselineCompile(f, false, cfg); err != nil {
			b.Fatal(err)
		}
		if hint, err = eval.BaselineCompile(f, true, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(base.Compile)/float64(ret.Compile), "compile-speedup-base(x)")
	b.ReportMetric(float64(hint.Compile)/float64(ret.Compile), "compile-speedup-hint(x)")
	b.ReportMetric(base.RunNs/ret.RunNs, "run-speedup-base(x)")
	b.ReportMetric(hint.RunNs/ret.RunNs, "run-speedup-hint(x)")
	b.ReportMetric(float64(ret.Luts), "reticle-LUTs")
	b.ReportMetric(float64(ret.Dsps), "reticle-DSPs")
}

func BenchmarkTensorAdd(b *testing.B) {
	for _, size := range eval.TensorAddSizes {
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			figure13Panel(b, "tensoradd", size)
		})
	}
}

func BenchmarkTensorDot(b *testing.B) {
	for _, size := range eval.TensorDotSizes {
		b.Run(fmt.Sprintf("5x%d", size), func(b *testing.B) {
			figure13Panel(b, "tensordot", size)
		})
	}
}

func BenchmarkFSM(b *testing.B) {
	for _, size := range eval.FSMSizes {
		b.Run(fmt.Sprintf("s%d", size), func(b *testing.B) {
			figure13Panel(b, "fsm", size)
		})
	}
}

// BenchmarkReticleCompile measures the Reticle pipeline alone across the
// largest size of each workload.
func BenchmarkReticleCompile(b *testing.B) {
	cases := []struct {
		name string
		f    func() (*ir.Func, error)
	}{
		{"tensoradd512", func() (*ir.Func, error) { return bench.TensorAdd(512) }},
		{"tensordot5x36", func() (*ir.Func, error) { return bench.TensorDot(5, 36) }},
		{"fsm9", func() (*ir.Func, error) { return bench.FSM(9) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			f, err := tc.f()
			if err != nil {
				b.Fatal(err)
			}
			cfg := benchCfg()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.ReticleCompile(f, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaselineCompile measures the simulated traditional toolchain.
func BenchmarkBaselineCompile(b *testing.B) {
	for _, hint := range []bool{false, true} {
		name := "base"
		if hint {
			name = "hint"
		}
		b.Run(name, func(b *testing.B) {
			f, err := bench.TensorAdd(256)
			if err != nil {
				b.Fatal(err)
			}
			cfg := benchCfg()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.BaselineCompile(f, hint, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSelector compares optimal tree covering against greedy
// maximal munch (DESIGN.md ablation 1).
func BenchmarkAblationSelector(b *testing.B) {
	f, err := bench.TensorDot(5, 18)
	if err != nil {
		b.Fatal(err)
	}
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		b.Fatal(err)
	}
	for _, greedy := range []bool{false, true} {
		name := "optimal"
		if greedy {
			name = "greedy"
		}
		b.Run(name, func(b *testing.B) {
			var dsps int
			for i := 0; i < b.N; i++ {
				af, err := isel.SelectWithLibrary(f, lib, isel.Options{Greedy: greedy})
				if err != nil {
					b.Fatal(err)
				}
				dsps = af.AsmCount()
			}
			b.ReportMetric(float64(dsps), "instructions")
		})
	}
}

// BenchmarkAblationShrink compares placement with and without the
// binary-search compaction passes (DESIGN.md ablation 2).
func BenchmarkAblationShrink(b *testing.B) {
	f, err := bench.TensorDot(5, 9)
	if err != nil {
		b.Fatal(err)
	}
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		b.Fatal(err)
	}
	af, err := isel.SelectWithLibrary(f, lib, isel.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dev := ultrascale.Device()
	for _, shrink := range []bool{false, true} {
		name := "plain"
		if shrink {
			name = "shrink"
		}
		b.Run(name, func(b *testing.B) {
			var area int
			for i := 0; i < b.N; i++ {
				res, err := place.Place(af, dev, place.Options{Shrink: shrink})
				if err != nil {
					b.Fatal(err)
				}
				area = (res.MaxX[ir.ResDsp] + 1) * (res.MaxY[ir.ResDsp] + 1)
			}
			b.ReportMetric(float64(area), "dsp-bbox-area")
		})
	}
}

// BenchmarkPlaceShrink measures the placement hot path the warm-started
// shrink loop optimizes: tensordot 5x36 through the full pipeline with
// Shrink enabled — after cascading, five 36-member DSP macro chains whose
// compaction used to burn the probe step budget proving tight bounds
// infeasible. The custom metrics land in BENCH_<sha>.json (via
// cmd/reticle-benchjson) and are the placement-stage series
// scripts/bench_compare.sh guards against regression.
func BenchmarkPlaceShrink(b *testing.B) {
	f, err := bench.TensorDot(5, 36)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCompilerWith(Options{Shrink: true})
	if err != nil {
		b.Fatal(err)
	}
	var art *Artifact
	for i := 0; i < b.N; i++ {
		art, err = c.Compile(f)
		if err != nil {
			b.Fatal(err)
		}
	}
	ps := art.Place
	b.ReportMetric(float64(ps.SolverSteps), "solver-steps")
	b.ReportMetric(float64(ps.ShrinkProbes), "shrink-probes")
	b.ReportMetric(float64(ps.ProbesSkipped), "probes-skipped")
	if ps.ShrinkProbes > 0 {
		b.ReportMetric(float64(ps.SolverSteps)/float64(ps.ShrinkProbes), "steps-per-probe")
	}
	if ps.HintTried > 0 {
		b.ReportMetric(float64(ps.HintHits)/float64(ps.HintTried), "hint-hit-rate")
	}
	b.ReportMetric(float64(art.Stages.Place.Nanoseconds()), "place-ns")
}

// BenchmarkPlaceWide measures placement alone on the LUT-class shape that
// dominates a random-logic or FSM compile: bench.WidePlacement's 320 LUT
// singletons plus four macros, on both bundled devices. solver-steps is
// the determinism guard (it must repeat to the digit); B/op and allocs/op
// are what sharing one anchor domain per cluster shape bought — with a
// domain per cluster this was ~490 MB/op.
func BenchmarkPlaceWide(b *testing.B) {
	f, err := asm.Parse(bench.WidePlacement())
	if err != nil {
		b.Fatal(err)
	}
	for _, dev := range []*device.Device{ultrascale.Device(), agilex.Device()} {
		b.Run(dev.Name, func(b *testing.B) {
			b.ReportAllocs()
			var res *place.Result
			for i := 0; i < b.N; i++ {
				if res, err = place.Place(f, dev, place.Options{Shrink: true}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.SolverSteps), "solver-steps")
		})
	}
}

// tweakEditConstants bumps every const and reg-init value by delta —
// the canonical incremental edit: a new artifact with an identical
// structural hash, so the placement hint cache should adopt the
// recorded solution.
func tweakEditConstants(f *ir.Func, delta int64) {
	for i := range f.Body {
		if f.Body[i].Op == ir.OpConst || f.Body[i].Op == ir.OpReg {
			attrs := append([]int64(nil), f.Body[i].Attrs...)
			for k := range attrs {
				attrs[k] += delta
			}
			f.Body[i].Attrs = attrs
		}
	}
}

// BenchmarkEditReplay measures the incremental edit loop the placement
// hint cache accelerates: a warm full compile of tensordot 5x36, then
// one constant-tweaked recompile per iteration against the same hint
// store. hint-cache-hit-rate should sit at 1.0 and steps-per-edit at
// ~0; steps-per-edit is gated by scripts/bench_compare.sh so the
// adoption path cannot silently start re-solving.
func BenchmarkEditReplay(b *testing.B) {
	base, err := bench.TensorDot(5, 36)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCompilerWith(Options{Shrink: true})
	if err != nil {
		b.Fatal(err)
	}
	c.cfg.HintCache = hintcache.New(64)
	cold, err := c.Compile(base)
	if err != nil {
		b.Fatal(err)
	}
	coldSteps := cold.Place.SolverSteps

	var hits, steps, saved int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := base.Clone()
		tweakEditConstants(f, int64(i%100+1))
		art, err := c.Compile(f)
		if err != nil {
			b.Fatal(err)
		}
		hits += art.Place.HintCacheHits
		steps += art.Place.SolverSteps
		saved += art.Place.HintCacheStepsSaved
	}
	edits := float64(b.N)
	b.ReportMetric(float64(hits)/edits, "hint-cache-hit-rate")
	b.ReportMetric(float64(steps)/edits, "steps-per-edit")
	b.ReportMetric(float64(saved)/edits, "steps-saved-per-edit")
	b.ReportMetric(float64(coldSteps), "cold-steps")
}

// BenchmarkAblationCascade compares tensordot timing with and without the
// §5.2 layout optimization (DESIGN.md ablation 3).
func BenchmarkAblationCascade(b *testing.B) {
	f, err := bench.TensorDot(5, 18)
	if err != nil {
		b.Fatal(err)
	}
	for _, noCascade := range []bool{false, true} {
		name := "cascade"
		if noCascade {
			name = "fabric"
		}
		b.Run(name, func(b *testing.B) {
			c, err := NewCompilerWith(Options{NoCascade: noCascade})
			if err != nil {
				b.Fatal(err)
			}
			var crit float64
			for i := 0; i < b.N; i++ {
				art, err := c.Compile(f)
				if err != nil {
					b.Fatal(err)
				}
				crit = art.CriticalNs
			}
			b.ReportMetric(crit, "critical-ns")
		})
	}
}

// BenchmarkInterpreter measures Algorithm 1 throughput on the fsm.
func BenchmarkInterpreter(b *testing.B) {
	f, err := bench.FSM(9)
	if err != nil {
		b.Fatal(err)
	}
	trace := make(Trace, 100)
	for i := range trace {
		trace[i] = Step{"go": ir.BoolValue(i%3 != 0)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Interpret(f, trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTimingDriven compares plain solver placement against
// timing-driven refinement (the paper's named future-work direction).
func BenchmarkAblationTimingDriven(b *testing.B) {
	f, err := bench.TensorDot(2, 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, td := range []bool{false, true} {
		name := "plain"
		if td {
			name = "refined"
		}
		b.Run(name, func(b *testing.B) {
			c, err := NewCompilerWith(Options{TimingDriven: td})
			if err != nil {
				b.Fatal(err)
			}
			var crit float64
			for i := 0; i < b.N; i++ {
				art, err := c.Compile(f)
				if err != nil {
					b.Fatal(err)
				}
				crit = art.CriticalNs
			}
			b.ReportMetric(crit, "critical-ns")
		})
	}
}

// BenchmarkCompileBatch measures the concurrent batch compiler: one
// shared pattern library, a mixed kernel set (systolic dot products,
// vector adds, FSMs), and increasing worker counts. The reported
// kernels/sec is the metric the bench-baseline CI job tracks; jobs1 vs
// jobsN shows the parallel speedup the read-only shared library buys.
func BenchmarkCompileBatch(b *testing.B) {
	var fs []*Func
	for i := 0; i < 4; i++ {
		dot, err := bench.TensorDot(2, 3+i)
		if err != nil {
			b.Fatal(err)
		}
		add, err := bench.TensorAdd(64)
		if err != nil {
			b.Fatal(err)
		}
		fsm, err := bench.FSM(3 + i)
		if err != nil {
			b.Fatal(err)
		}
		fs = append(fs, dot, add, fsm)
	}
	for _, jobs := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			c, err := NewCompiler()
			if err != nil {
				b.Fatal(err)
			}
			var rate float64
			for i := 0; i < b.N; i++ {
				results, st, err := c.CompileBatch(context.Background(), fs, BatchOptions{Jobs: jobs})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if !r.Ok() {
						b.Fatalf("kernel %d: %v", r.Index, r.Err)
					}
				}
				rate = st.KernelsPerSec
			}
			b.ReportMetric(rate, "kernels/sec")
		})
	}
}

// BenchmarkExplore measures the design-space sweep engine (/explore)
// over the tensordot kernel with the per-stage compilation memo wired
// in — the steady state of a service re-sweeping an edited kernel. A
// warm-up sweep fills the stage cache; every timed sweep then compiles
// each variant through the full pipeline with the stages served from
// the memo. No whole-artifact tier sits in front (that would measure a
// map lookup, not the pipeline), so explore-ns-per-variant — the
// bench_compare gate — tracks what a compile actually costs when stage
// results are reusable. stage-skips-per-variant must stay > 0: zero
// means stage keys stopped being stable across identical sweeps.
//
// Set RETICLE_BENCH_NO_STAGECACHE=1 to disable the memo and measure
// cold per-variant compiles — the pre-stage-cache behavior the
// committed baseline was generated with.
func BenchmarkExplore(b *testing.B) {
	f, err := bench.TensorDot(5, 9)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCompiler()
	if err != nil {
		b.Fatal(err)
	}
	memoized := os.Getenv("RETICLE_BENCH_NO_STAGECACHE") == ""
	if memoized {
		c.cfg.StageCache = stagecache.New(4096)
	}
	opts := ExploreOptions{Jobs: 4}
	ctx := context.Background()
	if _, err := c.Explore(ctx, f, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *ExploreResult
	for i := 0; i < b.N; i++ {
		res, err = c.Explore(ctx, f, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Partial || len(res.Frontier) == 0 {
		b.Fatalf("degenerate sweep: partial=%v frontier=%d", res.Partial, len(res.Frontier))
	}
	if memoized && res.Stats.StagesSkipped == 0 {
		b.Fatal("warm sweep skipped no stages: stage keys are unstable across identical sweeps")
	}
	b.ReportMetric(res.Stats.VariantsPerSec, "variants-per-sec")
	b.ReportMetric(float64(res.Stats.StagesSkipped)/float64(res.Stats.Variants), "stage-skips-per-variant")
	if res.Stats.VariantsPerSec > 0 {
		b.ReportMetric(1e9/res.Stats.VariantsPerSec, "explore-ns-per-variant")
	}
}
