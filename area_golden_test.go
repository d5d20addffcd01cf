// Golden area counts: every bundled example program, compiled on every
// bundled family under both binding extremes, must land on exactly the
// LUT/carry/FF/DSP budget recorded here. These are codegen's own counts,
// the only area count there is: /explore scores variants by them too.
package reticle

import (
	"fmt"
	"testing"
)

// areaGoldens pins the resource counts of the bundled examples. The
// "default" policy leaves annotations as written (the examples lean on
// @?? selector choice, which prefers DSPs for arithmetic); "lut"
// re-binds every compute instruction onto the fabric.
var areaGoldens = []struct {
	family, program, policy  string
	luts, carries, ffs, dsps int
}{
	{"ultrascale", "counter", "default", 0, 0, 0, 1},
	{"ultrascale", "counter", "lut", 8, 1, 8, 0},
	{"ultrascale", "fig6", "default", 0, 0, 0, 1},
	{"ultrascale", "fig6", "lut", 8, 1, 0, 0},
	{"ultrascale", "macc", "default", 0, 0, 0, 1},
	{"ultrascale", "macc", "lut", 128, 8, 8, 0},
	{"ultrascale", "vadd8", "default", 0, 0, 0, 8},
	{"ultrascale", "vadd8", "lut", 64, 8, 0, 0},
	{"agilex", "counter", "default", 0, 0, 0, 1},
	{"agilex", "counter", "lut", 8, 1, 8, 0},
	{"agilex", "fig6", "default", 0, 0, 0, 1},
	{"agilex", "fig6", "lut", 8, 1, 0, 0},
	{"agilex", "macc", "default", 0, 0, 0, 1},
	{"agilex", "macc", "lut", 128, 8, 8, 0},
	{"agilex", "vadd8", "default", 0, 0, 0, 8},
	{"agilex", "vadd8", "lut", 64, 8, 0, 0},
}

// compileGolden compiles one golden row's program under its family and
// policy and returns the artifact.
func compileGolden(t *testing.T, progs map[string]string, family, program, policy string) *Artifact {
	t.Helper()
	var opts Options
	if family == "agilex" {
		opts = Options{Target: Agilex(), Device: AGF014()}
	}
	c, err := NewCompilerWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	src, ok := progs[program]
	if !ok {
		t.Fatalf("no example program %q", program)
	}
	f, err := ParseIR(src)
	if err != nil {
		t.Fatal(err)
	}
	if policy == "lut" {
		if f, err = Bind(f, PreferLut); err != nil {
			t.Fatal(err)
		}
	}
	art, err := c.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func TestAreaGoldenExamples(t *testing.T) {
	progs := examplePrograms(t)
	covered := make(map[string]bool)
	for _, g := range areaGoldens {
		covered[g.program] = true
		t.Run(fmt.Sprintf("%s/%s/%s", g.family, g.program, g.policy), func(t *testing.T) {
			art := compileGolden(t, progs, g.family, g.program, g.policy)
			if art.LUTs != g.luts || art.Carries != g.carries || art.FFs != g.ffs || art.DSPs != g.dsps {
				t.Fatalf("area (luts=%d carries=%d ffs=%d dsps=%d), golden (%d %d %d %d)",
					art.LUTs, art.Carries, art.FFs, art.DSPs,
					g.luts, g.carries, g.ffs, g.dsps)
			}
		})
	}
	// Every bundled example must have a golden row: a new example added
	// without one silently escapes the area contract.
	for name := range progs {
		if !covered[name] {
			t.Errorf("example %q has no area golden; add rows for it", name)
		}
	}
}
