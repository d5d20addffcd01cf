package codegen_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/bench"
	"reticle/internal/codegen"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/isel"
	"reticle/internal/pipeline"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
	"reticle/internal/tdl"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// emitSeeds is the number of seeded irgen programs per family in the
// emit corpus.
const emitSeeds = 200

// emitCase is one placed program of the emit corpus: codegen's input.
type emitCase struct {
	name, family string
	placed       *asm.Func
	target       *tdl.Target
}

// familyConfigs builds the default pipeline configuration of both
// bundled families, in a fixed order.
var familyConfigs = sync.OnceValues(func() ([]*pipeline.Config, error) {
	var cfgs []*pipeline.Config
	for _, cfg := range []*pipeline.Config{
		{Target: ultrascale.Target(), Device: ultrascale.Device(), Cascades: ultrascale.Cascades()},
		{Target: agilex.Target(), Device: agilex.Device(), Cascades: agilex.Cascades()},
	} {
		lib, err := isel.NewLibrary(cfg.Target)
		if err != nil {
			return nil, err
		}
		cfg.Lib = lib
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
})

// seedProgram is the irgen program of one corpus seed, vectors on.
func seedProgram(seed int64) *ir.Func {
	return irgen.Generate(rand.New(rand.NewSource(seed)), irgen.Config{Instrs: 16, WithVectors: true})
}

// emitPrograms lists the corpus programs: every bundled program under
// examples/programs (the inputs of the root's testdata/golden), then
// emitSeeds seeded irgen programs.
func emitPrograms(t testing.TB) (names []string, fns []*ir.Func) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.ret"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled programs: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		names, fns = append(names, filepath.Base(p)), append(fns, f)
	}
	for seed := int64(0); seed < emitSeeds; seed++ {
		names, fns = append(names, fmt.Sprintf("irgen-%d", seed)), append(fns, seedProgram(seed))
	}
	return names, fns
}

// placeFor runs the pipeline's front half (selection, cascade,
// placement) on f and returns the placed program codegen consumes.
func placeFor(cfg *pipeline.Config, f *ir.Func) (*asm.Func, error) {
	art, err := pipeline.Compile(context.Background(), cfg, f)
	if err != nil {
		return nil, err
	}
	return art.Placed, nil
}

// emitCorpus is every (program, family) pair whose front half compiles,
// family-major within each program.
func emitCorpus(t testing.TB) []emitCase {
	t.Helper()
	cfgs, err := familyConfigs()
	if err != nil {
		t.Fatal(err)
	}
	names, fns := emitPrograms(t)
	var cases []emitCase
	for i, f := range fns {
		for _, cfg := range cfgs {
			placed, err := placeFor(cfg, f)
			if err != nil {
				continue
			}
			cases = append(cases, emitCase{names[i], cfg.Target.Name, placed, cfg.Target})
		}
	}
	return cases
}

// emitLine is one golden line: the program, the family, the SHA-256 of
// the emitted text and the four counts, or the error.
func emitLine(c emitCase) string {
	v, st, err := codegen.Generate(c.placed, c.target)
	if err != nil {
		return fmt.Sprintf("%s %s error %q\n", c.name, c.family, err.Error())
	}
	return fmt.Sprintf("%s %s %x luts=%d carries=%d ffs=%d dsps=%d\n",
		c.name, c.family, sha256.Sum256([]byte(v.String())), st.Luts, st.Carries, st.FFs, st.Dsps)
}

// TestEmitGolden pins the bytes and counts codegen emits for the emit
// corpus against testdata/emit.golden. Regenerate only at a commit whose
// output you mean to record:
//
//	go test -run TestEmitGolden -update ./internal/codegen/
func TestEmitGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range emitCorpus(t) {
		got.WriteString(emitLine(c))
	}
	matchGolden(t, "emit", got.Bytes())
}

// timingDrivenSeeds is the number of irgen seeds, after the bundled
// programs, that TestTimingGolden also compiles timing-driven.
const timingDrivenSeeds = 64

// TestTimingGolden pins what the pipeline measures of the emit corpus
// against testdata/timing.golden: per program and family, the critical
// path (its length's float bits and its names), the cascade chains
// rewritten and the LUT and DSP counts; then, for the bundled and bench
// programs and the first timingDrivenSeeds seeds, the SHA-256 of the
// placed text and the critical path under timing-driven refinement. Regenerate only
// at a commit whose output you mean to record:
//
//	go test -run TestTimingGolden -update ./internal/codegen/
func TestTimingGolden(t *testing.T) {
	cfgs, err := familyConfigs()
	if err != nil {
		t.Fatal(err)
	}
	names, fns := timingPrograms(t)
	var got bytes.Buffer
	chains := 0
	for i, f := range fns {
		for _, cfg := range cfgs {
			art, err := pipeline.Compile(context.Background(), cfg, f)
			if err != nil {
				fmt.Fprintf(&got, "%s %s error %q\n", names[i], cfg.Target.Name, err.Error())
				continue
			}
			chains += art.CascadeChains
			fmt.Fprintf(&got, "%s %s critical=%016x path=%s chains=%d luts=%d dsps=%d\n",
				names[i], cfg.Target.Name, math.Float64bits(art.CriticalNs),
				strings.Join(art.CriticalPath, ","), art.CascadeChains, art.LUTs, art.DSPs)
		}
	}
	if chains == 0 {
		t.Error("no case rewrites a cascade chain: the golden does not cover the cascade pass")
	}
	for i, f := range fns[:len(fns)-emitSeeds+timingDrivenSeeds] {
		for _, cfg := range cfgs {
			driven := *cfg
			driven.TimingDriven = true
			art, err := pipeline.Compile(context.Background(), &driven, f)
			if err != nil {
				fmt.Fprintf(&got, "%s %s timing-driven error %q\n", names[i], cfg.Target.Name, err.Error())
				continue
			}
			fmt.Fprintf(&got, "%s %s timing-driven %x critical=%016x\n", names[i], cfg.Target.Name,
				sha256.Sum256([]byte(art.PlacedText)), math.Float64bits(art.CriticalNs))
		}
	}
	matchGolden(t, "timing", got.Bytes())
}

// timingPrograms is the emit corpus with the bench workloads inserted
// after the bundled programs: no emit corpus program forms a cascade
// chain, and bench's tensordot does on both families.
func timingPrograms(t *testing.T) (names []string, fns []*ir.Func) {
	t.Helper()
	names, fns = emitPrograms(t)
	bundled := len(fns) - emitSeeds
	must := func(f *ir.Func, err error) *ir.Func {
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	bfns := []*ir.Func{
		must(bench.TensorDot(1, 2)), must(bench.TensorDot(2, 3)), must(bench.TensorDot(5, 3)),
		must(bench.TensorAdd(8)), must(bench.FSM(4)),
	}
	var bnames []string
	for _, f := range bfns {
		bnames = append(bnames, f.Name)
	}
	names = slices.Concat(names[:bundled], bnames, names[bundled:])
	fns = slices.Concat(fns[:bundled], bfns, fns[bundled:])
	return names, fns
}

// matchGolden compares got with testdata/<name>.golden line by line, or
// rewrites the file under -update.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file (run with -update to create): %v", err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s golden line %d moved (run with -update only if the change is intentional)\ngot:  %s\nwant: %s", name, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s golden has %d lines, the corpus produced %d", name, len(wl), len(gl))
	}
}
