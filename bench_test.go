// Benchmarks of the compiler's own work, for `go test -bench`:
//
//	BenchmarkCompile*           — the served pipeline on the largest figure programs
//	BenchmarkAblation*          — design-choice ablations (DESIGN.md §5)
//	BenchmarkPlace*             — the placement stage alone (DESIGN.md §10)
//	BenchmarkEditReplay, BenchmarkCompileBatch, BenchmarkExplore
//
// Their machine-independent counts (solver-steps, allocs/op, ...) are
// what `reticle-benchjson record` writes to BENCH_baseline.json and
// `reticle-benchjson compare` gates. The paper's figures are not
// measured here: `go run ./cmd/reticle-bench` prints them, with the full
// baseline schedule, into EXPERIMENTS.md.
package reticle

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/bench"
	"reticle/internal/device"
	"reticle/internal/hintcache"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/isel"
	"reticle/internal/place"
	"reticle/internal/stagecache"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
)

// BenchmarkCompile measures the served pipeline — NewCompiler().Compile,
// rendered Verilog included — on the largest size of each figure program.
func BenchmarkCompile(b *testing.B) {
	c, err := NewCompiler()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		f    func() (*ir.Func, error)
	}{
		{"tensoradd512", func() (*ir.Func, error) { return bench.TensorAdd(512) }},
		{"tensordot5x36", func() (*ir.Func, error) { return bench.TensorDot(5, 36) }},
		{"fsm9", func() (*ir.Func, error) { return bench.FSM(9) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f, err := tc.f()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Compile(f); err != nil {
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
// binary-search compaction passes (DESIGN.md ablation 2) on tensoradd
// 512: 128 vector DSP adds the plain solver spreads over a 240-slot
// bounding box and shrinking packs into 129. A problem whose box is
// already at its packing floor (tensordot 5x9: 45 either way) leaves the
// feature idle, so equal areas are fatal. The sub-benchmarks carry the
// problem's name: a count recorded on another problem is another series.
func BenchmarkAblationShrink(b *testing.B) {
	f, err := bench.TensorAdd(512)
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
	area := map[bool]int{}
	for _, shrink := range []bool{false, true} {
		name := "plain_tensoradd512"
		if shrink {
			name = "shrink_tensoradd512"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := place.PlaceContext(context.Background(), af, dev, place.Options{Shrink: shrink})
				if err != nil {
					b.Fatal(err)
				}
				area[shrink] = (res.MaxX[ir.ResDsp] + 1) * (res.MaxY[ir.ResDsp] + 1)
			}
			b.ReportMetric(float64(area[shrink]), "dsp-bbox-area")
		})
	}
	if len(area) == 2 && area[true] >= area[false] {
		b.Fatalf("shrinking is idle on this problem: dsp-bbox-area %d plain, %d shrunk", area[false], area[true])
	}
}

// BenchmarkPlaceShrink measures the placement hot path the warm-started
// shrink loop optimizes: tensordot 5x36 through the full pipeline with
// Shrink enabled — after cascading, five 36-member DSP macro chains whose
// compaction used to burn the probe step budget proving tight bounds
// infeasible. solver-steps, shrink-probes and steps-per-probe are the
// placement series `reticle-benchjson compare` gates.
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
}

// BenchmarkPlaceWide measures placement alone on the LUT-class shape that
// dominates a random-logic or FSM compile: widePlacement's 320 LUT
// singletons plus four macros, on both bundled devices. solver-steps is
// the determinism guard (it must repeat to the digit); B/op and allocs/op
// are what sharing one anchor domain per cluster shape bought — with a
// domain per cluster this was ~490 MB/op.
func BenchmarkPlaceWide(b *testing.B) {
	f, err := asm.Parse(widePlacement())
	if err != nil {
		b.Fatal(err)
	}
	for _, dev := range []*device.Device{ultrascale.Device(), agilex.Device()} {
		b.Run(dev.Name, func(b *testing.B) {
			b.ReportAllocs()
			var res *place.Result
			for i := 0; i < b.N; i++ {
				if res, err = place.PlaceContext(context.Background(), f, dev, place.Options{Shrink: true}); err != nil {
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
// ~0; steps-per-edit is gated by `reticle-benchjson compare` so the
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
// timing-driven refinement (the paper's named future-work direction) on
// a random LUT-class program (irgen seed 0: 80 LUTs, 2 DSPs), where
// refinement shortens the critical path 1.984 -> 1.900 ns. The paper's
// own benchmarks leave it idle — DSP chains are pinned by their cascade
// constraints and the fsm placements are already tight — so equal
// critical paths are fatal.
func BenchmarkAblationTimingDriven(b *testing.B) {
	f := irgen.Generate(rand.New(rand.NewSource(0)), irgen.Config{})
	crit := map[bool]float64{}
	for _, td := range []bool{false, true} {
		name := "plain_irgen0"
		if td {
			name = "refined_irgen0"
		}
		b.Run(name, func(b *testing.B) {
			c, err := NewCompilerWith(Options{TimingDriven: td})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				art, err := c.Compile(f)
				if err != nil {
					b.Fatal(err)
				}
				crit[td] = art.CriticalNs
			}
			b.ReportMetric(crit[td], "critical-ns")
		})
	}
	if len(crit) == 2 && crit[true] >= crit[false] {
		b.Fatalf("refinement is idle on this problem: critical-ns %.3f plain, %.3f refined", crit[false], crit[true])
	}
}

// BenchmarkCompileBatch measures the concurrent batch compiler: one
// shared pattern library, a mixed kernel set (systolic dot products,
// vector adds, FSMs), and increasing worker counts. jobs1 vs jobsN in
// ns/op shows the parallel speedup the read-only shared library buys;
// what is recorded per commit is B/op and allocs/op (throughput over
// sockets is benchmark/reticle-load's batch.kernels_per_s.*).
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
			for i := 0; i < b.N; i++ {
				results, _, err := c.CompileBatch(context.Background(), fs, BatchOptions{Jobs: jobs})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if !r.Ok() {
						b.Fatalf("kernel %d: %v", r.Index, r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkExplore measures the design-space sweep engine (/explore)
// over the tensordot kernel with the per-stage compilation memo wired
// in — the steady state of a service re-sweeping an edited kernel. A
// warm-up sweep fills the stage cache; every timed sweep then compiles
// each variant through the full pipeline with the stages served from
// the memo. No whole-artifact tier sits in front (that would measure a
// map lookup, not the pipeline), so ns/op tracks what a sweep actually
// costs when stage results are reusable. stage-skips-per-variant must
// stay > 0: zero means stage keys stopped being stable across identical
// sweeps.
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
	b.ReportMetric(float64(res.Stats.StagesSkipped)/float64(res.Stats.Variants), "stage-skips-per-variant")
}

// widePlacement is the assembly text of a placement-only stress shaped
// like a large LUT-class kernel: 320 independent LUT instructions (eight
// of them pinned to a column or a row, so they carry their own anchor
// domains), two 3-row LUT macros and two 4-row DSP chains. It is already
// selected — callers parse it with asm.Parse and hand it to place.PlaceContext —
// so what it measures is the placer: one domain per LUT singleton used to
// mean ~320 copies of every LUT slice id on the device.
func widePlacement() string {
	var b strings.Builder
	b.WriteString("def wide(a:i8, b:i8) -> (s319:i8) {\n")
	for i := 0; i < 320; i++ {
		loc := "??, ??"
		switch i % 80 {
		case 20:
			loc = "2, ??"
		case 60:
			loc = "??, 5"
		}
		fmt.Fprintf(&b, "    s%d:i8 = lutadd(a, b) @lut(%s);\n", i, loc)
	}
	for m := 0; m < 2; m++ {
		for r := 0; r < 3; r++ {
			fmt.Fprintf(&b, "    l%d_%d:i8 = lutadd(a, b) @lut(lx%d, ly%d+%d);\n", m, r, m, m, r)
		}
	}
	for m := 0; m < 2; m++ {
		prev := "a"
		for r := 0; r < 4; r++ {
			dest := fmt.Sprintf("d%d_%d", m, r)
			fmt.Fprintf(&b, "    %s:i8 = muladd(a, b, %s) @dsp(dx%d, dy%d+%d);\n", dest, prev, m, m, r)
			prev = dest
		}
	}
	b.WriteString("}\n")
	return b.String()
}
