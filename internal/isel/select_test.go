package isel

import (
	"math/rand"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/interp"
	"reticle/internal/ir"
	"reticle/internal/tdl"
)

// testTDL is a compact target in the spirit of Fig. 10: LUT scalar ops plus
// DSP fused and vector ops.
const testTDL = `
lut_add_i8[lut, 8, 2](a:i8, b:i8) -> (y:i8) {
    y:i8 = add(a, b);
}
lut_mul_i8[lut, 64, 6](a:i8, b:i8) -> (y:i8) {
    y:i8 = mul(a, b);
}
lut_reg_i8[lut, 8, 1](a:i8, en:bool) -> (y:i8) {
    y:i8 = reg[0](a, en);
}
lut_not_i8[lut, 8, 1](a:i8) -> (y:i8) {
    y:i8 = not(a);
}
lut_mux_i8[lut, 8, 2](c:bool, a:i8, b:i8) -> (y:i8) {
    y:i8 = mux(c, a, b);
}
lut_eq_i8[lut, 3, 2](a:i8, b:i8) -> (y:bool) {
    y:bool = eq(a, b);
}
dsp_add_i8[dsp, 1, 4](a:i8, b:i8) -> (y:i8) {
    y:i8 = add(a, b);
}
dsp_mul_i8[dsp, 1, 4](a:i8, b:i8) -> (y:i8) {
    y:i8 = mul(a, b);
}
dsp_muladd_i8[dsp, 1, 5](a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = mul(a, b);
    y:i8 = add(t0, c);
}
dsp_addrega_i8v4[dsp, 1, 4](a:i8<4>, b:i8<4>, en:bool) -> (y:i8<4>) {
    t0:i8<4> = add(a, b);
    y:i8<4> = reg[0](t0, en);
}
lut_addrega_i8[lut, 8, 2](a:i8, b:i8, en:bool) -> (y:i8) {
    t0:i8 = add(a, b);
    y:i8 = reg[0](t0, en);
}
`

func testLib(t *testing.T) (*tdl.Target, *Library) {
	t.Helper()
	target, err := tdl.Parse("test", testTDL)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := NewLibrary(target)
	if err != nil {
		t.Fatal(err)
	}
	return target, lib
}

func mustSelect(t *testing.T, src string) (*asm.Func, *tdl.Target) {
	t.Helper()
	target, lib := testLib(t)
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	af, err := SelectWithLibrary(f, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return af, target
}

// TestFig8MulAddFusion reproduces Figure 8: mul+add lowers to one muladd
// (cost 1) rather than mul and add (cost 2).
func TestFig8MulAddFusion(t *testing.T) {
	af, _ := mustSelect(t, `
def fig8(a:i8, b:i8, c:i8) -> (t1:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
}
`)
	if af.AsmCount() != 1 {
		t.Fatalf("selected %d instructions, want 1 muladd:\n%s", af.AsmCount(), af)
	}
	in := af.Body[0]
	if in.Name != "dsp_muladd_i8" {
		t.Errorf("selected %s, want dsp_muladd_i8", in.Name)
	}
	if in.Args[0] != "a" || in.Args[1] != "b" || in.Args[2] != "c" {
		t.Errorf("args = %v", in.Args)
	}
	if in.Loc.Prim != ir.ResDsp || !in.Loc.X.Wild {
		t.Errorf("loc = %s", in.Loc)
	}
}

// TestFanoutPreventsFusion: when the mul result is used twice, fusion would
// hide a needed value, so selection must keep mul separate.
func TestFanoutPreventsFusion(t *testing.T) {
	af, _ := mustSelect(t, `
def f(a:i8, b:i8, c:i8) -> (t1:i8, t2:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    t2:i8 = add(t0, a) @??;
}
`)
	if af.AsmCount() != 3 {
		t.Fatalf("selected %d instructions, want 3:\n%s", af.AsmCount(), af)
	}
	for _, in := range af.Body {
		if in.Name == "dsp_muladd_i8" {
			t.Errorf("fused across fanout:\n%s", af)
		}
	}
}

// TestResourceAnnotationIsHard: @lut forces the LUT pattern even though the
// DSP pattern is cheaper.
func TestResourceAnnotationIsHard(t *testing.T) {
	af, _ := mustSelect(t, `
def f(a:i8, b:i8) -> (y:i8) {
    y:i8 = add(a, b) @lut;
}
`)
	if af.Body[0].Name != "lut_add_i8" {
		t.Errorf("selected %s, want lut_add_i8", af.Body[0].Name)
	}
}

func TestUnsatisfiableResourceIsError(t *testing.T) {
	target, lib := testLib(t)
	_ = target
	f, err := ir.Parse(`
def f(a:i8) -> (y:i8) {
    y:i8 = not(a) @dsp;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = SelectWithLibrary(f, lib, Options{})
	if err == nil {
		t.Fatal("selection succeeded for @dsp not, which the target cannot do")
	}
	if !strings.Contains(err.Error(), "dsp") {
		t.Errorf("error should name the requested resource: %v", err)
	}
}

func TestUnsupportedTypeIsError(t *testing.T) {
	_, lib := testLib(t)
	f, err := ir.Parse(`
def f(a:i16, b:i16) -> (y:i16) {
    y:i16 = add(a, b) @??;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SelectWithLibrary(f, lib, Options{}); err == nil {
		t.Fatal("selection succeeded at a type the target lacks")
	}
}

// TestAddRegFusion: add feeding a single-use reg fuses into addrega, and the
// register's initial value is captured into the instruction attributes.
func TestAddRegFusion(t *testing.T) {
	af, _ := mustSelect(t, `
def f(a:i8, b:i8, en:bool) -> (y:i8) {
    t0:i8 = add(a, b) @lut;
    y:i8 = reg[42](t0, en) @lut;
}
`)
	if af.AsmCount() != 1 {
		t.Fatalf("selected %d instructions:\n%s", af.AsmCount(), af)
	}
	in := af.Body[0]
	if in.Name != "lut_addrega_i8" {
		t.Errorf("selected %s", in.Name)
	}
	if len(in.Attrs) != 1 || in.Attrs[0] != 42 {
		t.Errorf("captured init = %v, want [42]", in.Attrs)
	}
}

// TestVectorSelection: vector add+reg picks the SIMD DSP pattern.
func TestVectorSelection(t *testing.T) {
	af, _ := mustSelect(t, `
def f(a:i8<4>, b:i8<4>, en:bool) -> (y:i8<4>) {
    t0:i8<4> = add(a, b) @??;
    y:i8<4> = reg[0](t0, en) @??;
}
`)
	if af.AsmCount() != 1 || af.Body[0].Name != "dsp_addrega_i8v4" {
		t.Fatalf("selection:\n%s", af)
	}
	if len(af.Body[0].Attrs) != 4 {
		t.Errorf("vector reg init = %v, want 4 lanes", af.Body[0].Attrs)
	}
}

// TestWirePassThrough: wire instructions survive selection unchanged.
func TestWirePassThrough(t *testing.T) {
	af, _ := mustSelect(t, `
def f(a:i8) -> (y:i8) {
    t0:i8 = const[5];
    t1:i8 = sll[1](t0);
    y:i8 = add(t1, a) @dsp;
}
`)
	wires := 0
	for _, in := range af.Body {
		if in.IsWire() {
			wires++
		}
	}
	if wires != 2 {
		t.Errorf("wires = %d, want 2:\n%s", wires, af)
	}
}

// TestSelectionIsDeterministic runs the same selection twice.
func TestSelectionIsDeterministic(t *testing.T) {
	src := `
def f(a:i8, b:i8, c:i8, en:bool) -> (y:i8, z:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    y:i8 = reg[0](t1, en) @??;
    t2:i8 = add(a, c) @lut;
    z:i8 = reg[7](t2, en) @lut;
}
`
	a1, _ := mustSelect(t, src)
	a2, _ := mustSelect(t, src)
	if a1.String() != a2.String() {
		t.Errorf("nondeterministic selection:\n%s\nvs\n%s", a1, a2)
	}
}

// TestTranslationValidation: selected-and-expanded assembly must be
// observationally equivalent to the source IR program.
func TestTranslationValidation(t *testing.T) {
	src := `
def f(a:i8, b:i8, c:i8, en:bool) -> (y:i8, w:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    y:i8 = reg[3](t1, en) @??;
    t2:i8 = not(a) @lut;
    t3:i8 = add(t2, y) @??;
    w:i8 = mux(en, t3, c) @lut;
}
`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	target, lib := testLib(t)
	af, err := SelectWithLibrary(f, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := asm.Expand(af, target)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	trace := make(interp.Trace, 20)
	for i := range trace {
		trace[i] = interp.Step{
			"a":  ir.ScalarValue(ir.Int(8), rng.Int63()),
			"b":  ir.ScalarValue(ir.Int(8), rng.Int63()),
			"c":  ir.ScalarValue(ir.Int(8), rng.Int63()),
			"en": ir.BoolValue(rng.Intn(2) == 0),
		}
	}
	want, err := interp.Run(f, trace)
	if err != nil {
		t.Fatal(err)
	}
	got, err := interp.Run(back, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !interp.Equal(want, got) {
		t.Errorf("traces differ between IR and expanded assembly")
	}
}

func TestGreedyStillValid(t *testing.T) {
	src := `
def f(a:i8, b:i8, c:i8) -> (t1:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
}
`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	target, lib := testLib(t)
	af, err := SelectWithLibrary(f, lib, Options{Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := asm.CheckTarget(af, target); err != nil {
		t.Errorf("greedy produced invalid assembly: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	af, target := mustSelect(t, `
def f(a:i8, b:i8, c:i8) -> (y:i8, z:i8) {
    t0:i8 = const[1];
    y:i8 = add(a, t0) @lut;
    t1:i8 = mul(a, b) @??;
    z:i8 = add(t1, c) @??;
}
`)
	wires, area := 0, 0
	prims := map[ir.Resource]int{}
	for _, in := range af.Body {
		if in.IsWire() {
			wires++
			continue
		}
		def, ok := target.Lookup(in.Name)
		if !ok {
			t.Fatalf("unknown operation %q", in.Name)
		}
		area += def.Area
		prims[def.Prim]++
	}
	if wires != 1 {
		t.Errorf("wire instrs = %d", wires)
	}
	if prims[ir.ResLut] != 1 || prims[ir.ResDsp] != 1 {
		t.Errorf("lut/dsp = %d/%d:\n%s", prims[ir.ResLut], prims[ir.ResDsp], af)
	}
	if area != 8+1 {
		t.Errorf("area = %d", area)
	}
}

func TestCompilePatternRejectsDAGBody(t *testing.T) {
	src := `
square_sum[dsp, 1, 1](a:i8, b:i8) -> (y:i8) {
    t0:i8 = add(a, b);
    y:i8 = mul(t0, t0);
}
`
	target, err := tdl.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	def, _ := target.Lookup("square_sum")
	if _, err := CompilePattern(def); err == nil {
		t.Error("CompilePattern accepted non-tree body")
	}
}

func TestRepeatedInputPattern(t *testing.T) {
	// square(a) = mul(a, a): matches only when both operands coincide.
	src := `
dsp_square_i8[dsp, 1, 3](a:i8) -> (y:i8) {
    y:i8 = mul(a, a);
}
dsp_mul_i8[dsp, 2, 4](a:i8, b:i8) -> (y:i8) {
    y:i8 = mul(a, b);
}
`
	target, err := tdl.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := NewLibrary(target)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := ir.Parse(`def f(a:i8) -> (y:i8) { y:i8 = mul(a, a) @??; }`)
	if err != nil {
		t.Fatal(err)
	}
	af, err := SelectWithLibrary(sq, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if af.Body[0].Name != "dsp_square_i8" {
		t.Errorf("selected %s, want dsp_square_i8 (cheaper, args equal)", af.Body[0].Name)
	}
	diff, err := ir.Parse(`def f(a:i8, b:i8) -> (y:i8) { y:i8 = mul(a, b) @??; }`)
	if err != nil {
		t.Fatal(err)
	}
	af, err = SelectWithLibrary(diff, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if af.Body[0].Name != "dsp_mul_i8" {
		t.Errorf("selected %s for distinct operands, want dsp_mul_i8", af.Body[0].Name)
	}
}

func TestLibraryShape(t *testing.T) {
	_, lib := testLib(t)
	size := 0
	for _, ps := range lib.byOp {
		size += len(ps)
	}
	if size != 11 {
		t.Errorf("library size = %d", size)
	}
	// add-rooted: lut_add, dsp_add, and dsp_muladd (whose root op is add).
	adds := lib.Candidates(ir.OpAdd)
	if len(adds) != 3 {
		t.Errorf("add candidates = %d", len(adds))
	}
	regs := lib.Candidates(ir.OpReg)
	if len(regs) != 3 { // lut_reg, dsp_addrega(v4), lut_addrega
		t.Errorf("reg-rooted candidates = %d", len(regs))
	}
}

// TestCustomCostFunction: a latency-dominated cost model picks the faster
// pattern even when it costs more area.
func TestCustomCostFunction(t *testing.T) {
	src := `
lutslow[lut, 1, 9](a:i8, b:i8) -> (y:i8) {
    y:i8 = add(a, b);
}
lutfast[lut, 4, 1](a:i8, b:i8) -> (y:i8) {
    y:i8 = add(a, b);
}
`
	target, err := tdl.Parse("cost", src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ir.Parse(`def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @lut; }`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := NewLibrary(target)
	if err != nil {
		t.Fatal(err)
	}
	area, err := SelectWithLibrary(f, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if area.Body[0].Name != "lutslow" {
		t.Errorf("area-optimal pick = %s, want lutslow (area 1)", area.Body[0].Name)
	}
	lat, err := SelectWithLibrary(f, lib, Options{
		Cost: func(d *tdl.Def) int64 { return int64(d.Latency)*1024 + int64(d.Area) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if lat.Body[0].Name != "lutfast" {
		t.Errorf("latency-optimal pick = %s, want lutfast (latency 1)", lat.Body[0].Name)
	}
}
