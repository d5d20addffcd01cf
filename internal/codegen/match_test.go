package codegen_test

import (
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/codegen"
	"reticle/internal/target/ultrascale"
	"reticle/internal/tdl"
)

// matchReference asserts that Generate and the reference emitter agree
// on f under target: the same error, the same counts, and the same bytes
// wherever the reference module is well-formed; where it is not, the
// emitted one must be.
func matchReference(t testing.TB, name string, f *asm.Func, target *tdl.Target) {
	t.Helper()
	v, st, err := codegen.Generate(f, target)
	m, rst, rerr := refGenerate(f, target)
	if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
		t.Fatalf("%s: error %v, reference %v", name, err, rerr)
	}
	if st != rst {
		t.Fatalf("%s: stats %+v, reference %+v", name, st, rst)
	}
	if err != nil {
		return
	}
	got, want := v.String(), m.String()
	if got == want {
		return
	}
	if wellFormed(want) != nil {
		if err := wellFormed(got); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, got)
		}
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\ngot:  %s\nwant: %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, reference %d", name, len(gl), len(wl))
}

// unsupportedTDL defines one LUT operation whose body codegen cannot
// expand past its first step, and nothing else.
const unsupportedTDL = `
lut_andshl[lut, 1, 1](a:i8, b:i8) -> (y:i8) {
    t0:i8 = and(a, b);
    y:i8 = sll[1](t0);
}
`

// TestGenerateMatchesReference replays the emit corpus (every bundled
// program and the seeded irgen programs on both families) and the
// inputs codegen must refuse through both emitters.
func TestGenerateMatchesReference(t *testing.T) {
	for _, c := range emitCorpus(t) {
		matchReference(t, c.name+" "+c.family, c.placed, c.target)
	}

	unsupported, err := tdl.Parse("unsupported", unsupportedTDL)
	if err != nil {
		t.Fatal(err)
	}
	// The selected program of a bundled kernel, before placement.
	counter := `
def counter(x:bool) -> (t3:i8) {
    t1:i8 = const[4];
    t0:bool = const[1];
    t3:i8 = dsp_addrega_i8[0](t3, t1, t0) @dsp(??, ??);
}`
	for _, c := range []struct {
		name, src string
		target    *tdl.Target
	}{
		{"unresolved", counter, ultrascale.Target()},
		{"undefined operation", strings.Replace(counter, "(??, ??)", "(0, 0)", 1), unsupported},
		{"unsupported expansion", `
def f(a:i8, b:i8) -> (y:i8, z:i8) {
    z:i8 = lut_andshl(a, b) @lut(0, 0);
    y:i8 = lut_andshl(z, b) @lut(0, 1);
}`, unsupported},
	} {
		f, err := asm.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, _, err := codegen.Generate(f, c.target); err == nil {
			t.Errorf("%s: Generate accepted it", c.name)
		}
		matchReference(t, c.name, f, c.target)
	}
}

// FuzzGenerateMatchesReference runs the differential on the irgen
// program of each seed, on both families.
func FuzzGenerateMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	cfgs, err := familyConfigs()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		fn := seedProgram(seed)
		for _, cfg := range cfgs {
			placed, err := placeFor(cfg, fn)
			if err != nil {
				continue
			}
			matchReference(t, cfg.Target.Name, placed, cfg.Target)
		}
	})
}
