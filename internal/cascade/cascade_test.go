package cascade

import (
	"context"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/device"
	"reticle/internal/place"
	"reticle/internal/target/ultrascale"
	"reticle/internal/tdl"
)

func opts() Options {
	cas := make(map[string]Variants)
	for base, v := range ultrascale.Cascades() {
		cas[base] = Variants{Co: v.Co, Ci: v.Ci, CoCi: v.CoCi}
	}
	return Options{Cascades: cas, AccPort: "c"}
}

func mustApply(t *testing.T, src string) (*asm.Func, Stats) {
	t.Helper()
	f, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := Apply(f, ultrascale.Target(), opts())
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

// TestFig11Rewrite reproduces Figure 11: two chained muladds become
// muladd_co and muladd_ci with shared column and adjacent rows.
func TestFig11Rewrite(t *testing.T) {
	out, st := mustApply(t, `
def fig11(a:i8, b:i8, c:i8, d:i8, in:i8) -> (t1:i8) {
    t0:i8 = dsp_muladd_i8(a, b, in) @dsp(??, ??);
    t1:i8 = dsp_muladd_i8(c, d, t0) @dsp(??, ??);
}
`)
	if st.Chains != 1 || st.Rewritten != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if out.Body[0].Name != "dsp_muladd_i8_co" || out.Body[1].Name != "dsp_muladd_i8_ci" {
		t.Fatalf("names = %s, %s", out.Body[0].Name, out.Body[1].Name)
	}
	l0, l1 := out.Body[0].Loc, out.Body[1].Loc
	if l0.X.Var == "" || l0.X.Var != l1.X.Var {
		t.Errorf("columns not shared: %s vs %s", l0, l1)
	}
	if l0.Y.Var != l1.Y.Var || l1.Y.Off != l0.Y.Off+1 {
		t.Errorf("rows not adjacent: %s vs %s", l0, l1)
	}
}

func TestLongChainUsesCoCi(t *testing.T) {
	out, st := mustApply(t, `
def f(a:i8, b:i8, in:i8) -> (t3:i8) {
    t0:i8 = dsp_muladd_i8(a, b, in) @dsp(??, ??);
    t1:i8 = dsp_muladd_i8(a, b, t0) @dsp(??, ??);
    t2:i8 = dsp_muladd_i8(a, b, t1) @dsp(??, ??);
    t3:i8 = dsp_muladd_i8(a, b, t2) @dsp(??, ??);
}
`)
	if st.Chains != 1 || st.Rewritten != 4 {
		t.Fatalf("stats = %+v", st)
	}
	want := []string{"dsp_muladd_i8_co", "dsp_muladd_i8_coci", "dsp_muladd_i8_coci", "dsp_muladd_i8_ci"}
	for i, w := range want {
		if out.Body[i].Name != w {
			t.Errorf("instr %d = %s, want %s", i, out.Body[i].Name, w)
		}
	}
}

func TestFanoutBlocksCascade(t *testing.T) {
	// t0 is used twice: the cascade output replaces the regular output, so
	// the chain must not form.
	out, st := mustApply(t, `
def f(a:i8, b:i8, in:i8) -> (t1:i8, t2:i8) {
    t0:i8 = dsp_muladd_i8(a, b, in) @dsp(??, ??);
    t1:i8 = dsp_muladd_i8(a, b, t0) @dsp(??, ??);
    t2:i8 = dsp_add_i8(t0, a) @dsp(??, ??);
}
`)
	if st.Chains != 0 {
		t.Fatalf("chained across fanout: %+v\n%s", st, out)
	}
}

func TestOutputValueBlocksCascade(t *testing.T) {
	// t0 is a function output: its value must stay on the regular port.
	_, st := mustApply(t, `
def f(a:i8, b:i8, in:i8) -> (t0:i8, t1:i8) {
    t0:i8 = dsp_muladd_i8(a, b, in) @dsp(??, ??);
    t1:i8 = dsp_muladd_i8(a, b, t0) @dsp(??, ??);
}
`)
	if st.Chains != 0 {
		t.Fatalf("cascaded an output value: %+v", st)
	}
}

func TestNonAccumulatorUseBlocksCascade(t *testing.T) {
	// t0 feeds the multiplier port, not the accumulator.
	_, st := mustApply(t, `
def f(a:i8, b:i8, in:i8) -> (t1:i8) {
    t0:i8 = dsp_muladd_i8(a, b, in) @dsp(??, ??);
    t1:i8 = dsp_muladd_i8(t0, b, in) @dsp(??, ??);
}
`)
	if st.Chains != 0 {
		t.Fatalf("cascaded through multiplier port: %+v", st)
	}
}

func TestExplicitPlacementRespected(t *testing.T) {
	// The user pinned t0; the pass must leave the pair alone.
	_, st := mustApply(t, `
def f(a:i8, b:i8, in:i8) -> (t1:i8) {
    t0:i8 = dsp_muladd_i8(a, b, in) @dsp(0, 3);
    t1:i8 = dsp_muladd_i8(a, b, t0) @dsp(??, ??);
}
`)
	if st.Chains != 0 {
		t.Fatalf("rewrote a pinned instruction: %+v", st)
	}
}

func TestMaxChainSplits(t *testing.T) {
	o := opts()
	o.MaxChain = 2
	f, err := asm.Parse(`
def f(a:i8, b:i8, in:i8) -> (t3:i8) {
    t0:i8 = dsp_muladd_i8(a, b, in) @dsp(??, ??);
    t1:i8 = dsp_muladd_i8(a, b, t0) @dsp(??, ??);
    t2:i8 = dsp_muladd_i8(a, b, t1) @dsp(??, ??);
    t3:i8 = dsp_muladd_i8(a, b, t2) @dsp(??, ??);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := Apply(f, ultrascale.Target(), o)
	if err != nil {
		t.Fatal(err)
	}
	if st.Chains != 2 || st.Rewritten != 4 {
		t.Fatalf("stats = %+v\n%s", st, out)
	}
}

// TestCascadedProgramPlaces runs the rewritten Figure 11 through placement
// and checks physical adjacency end to end.
func TestCascadedProgramPlaces(t *testing.T) {
	out, _ := mustApply(t, `
def fig11(a:i8, b:i8, c:i8, d:i8, in:i8) -> (t1:i8) {
    t0:i8 = dsp_muladd_i8(a, b, in) @dsp(??, ??);
    t1:i8 = dsp_muladd_i8(c, d, t0) @dsp(??, ??);
}
`)
	dev, err := device.Standard("small", 4, 2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := place.PlaceContext(context.Background(), out, dev, place.Options{Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := res.Fn.Body[0].Loc, res.Fn.Body[1].Loc
	if s0.X.Off != s1.X.Off || s1.Y.Off != s0.Y.Off+1 {
		t.Errorf("not physically adjacent: %s, %s", s0, s1)
	}
}

func TestRegisteredChainCascades(t *testing.T) {
	// The systolic tensordot shape: registered muladds chained through c.
	out, st := mustApply(t, `
def f(a:i8, b:i8, in:i8, en:bool) -> (t1:i8) {
    t0:i8 = dsp_muladdrega_i8(a, b, in, en) @dsp(??, ??);
    t1:i8 = dsp_muladdrega_i8(a, b, t0, en) @dsp(??, ??);
}
`)
	if st.Chains != 1 {
		t.Fatalf("stats = %+v\n%s", st, out)
	}
	if out.Body[0].Name != "dsp_muladdrega_i8_co" || out.Body[1].Name != "dsp_muladdrega_i8_ci" {
		t.Errorf("names = %s, %s", out.Body[0].Name, out.Body[1].Name)
	}
}

func TestVariantsTypeCheckAgainstTarget(t *testing.T) {
	// Guard against Variants drifting from the ultrascale target.
	target := ultrascale.Target()
	for base, v := range opts().Cascades {
		for _, name := range []string{v.Co, v.Ci, v.CoCi} {
			if _, ok := target.Lookup(name); !ok {
				t.Errorf("variant %s of %s missing from target", name, base)
			}
		}
	}
	var _ *tdl.Target = target
}

// TestPlantedBadRewriteRefused: the rewrite is checked against the
// definitions it names, on both entry points — a variant the target does
// not define, or one whose signature does not fit the instruction, is
// refused, not passed on to placement.
func TestPlantedBadRewriteRefused(t *testing.T) {
	const src = `
def f(a:i8, b:i8, c:i8, d:i8, in:i8) -> (t1:i8) {
    t0:i8 = dsp_muladd_i8(a, b, in) @dsp(??, ??);
    t1:i8 = dsp_muladd_i8(c, d, t0) @dsp(??, ??);
}
`
	f, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	target := ultrascale.Target()
	syms, err := asm.Resolve(f, target)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ci   string
		want string
	}{
		{"undefined", "dsp_muladd_i8_nowhere",
			`cascade: rewrite produced invalid assembly: asm: t1: operation "dsp_muladd_i8_nowhere" is not defined by target ultrascale`},
		{"wrong primitive", "lut_add_i8",
			"cascade: rewrite produced invalid assembly: asm: t1: lut_add_i8 occupies lut, placed on dsp"},
		{"wrong width", "dsp_muladd_i16_ci",
			"cascade: rewrite produced invalid assembly: asm: t1: dsp_muladd_i16_ci argument 0 has type i8, want i16"},
	} {
		o := opts()
		v := o.Cascades["dsp_muladd_i8"]
		v.Ci = tc.ci
		o.Cascades["dsp_muladd_i8"] = v
		for entry, apply := range map[string]func() (*asm.Func, Stats, error){
			"Apply": func() (*asm.Func, Stats, error) { return Apply(f, target, o) },
			"ApplyWithSymbols": func() (*asm.Func, Stats, error) {
				out := f.Clone()
				st, err := ApplyWithSymbols(out, syms, target, o)
				return out, st, err
			},
		} {
			if _, _, err := apply(); err == nil || err.Error() != tc.want {
				t.Errorf("%s, %s: got %v, want %q", tc.name, entry, err, tc.want)
			}
		}
	}
}
