package codegen

import (
	"context"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/cascade"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/place"
	"reticle/internal/target/ultrascale"
)

// compile runs the full pipeline: IR -> select -> place -> verilog.
func compile(t *testing.T, src string) (string, Stats) {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	af, err := isel.SelectWithLibrary(f, lib, isel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := place.PlaceContext(context.Background(), af, ultrascale.Device(), place.Options{Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	m, st, err := Generate(res.Fn, ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	return m.String(), st
}

func TestBitAndLikeFig2(t *testing.T) {
	// The paper's running example: a 1-bit and maps to a single LUT2 with
	// INIT 4'h8, LOC, and BEL annotations (Fig. 2c).
	v, st := compile(t, `
def bit_and(a:bool, b:bool) -> (y:bool) {
    y:bool = and(a, b) @lut;
}
`)
	if st.Luts != 1 || st.Dsps != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for _, want := range []string{
		"module bit_and(input a, input b, output y);",
		"LUT2 # (.INIT(4'h8))",
		`LOC = "SLICE_X`,
		`BEL = "A6LUT"`,
		".I0(a), .I1(b), .O(y)",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("missing %q:\n%s", want, v)
		}
	}
}

func TestEightBitAndUsesEightLUTs(t *testing.T) {
	// "one 8-bit integer operation requires 8 LUTs" (§5.4).
	_, st := compile(t, `
def and8(a:i8, b:i8) -> (y:i8) {
    y:i8 = and(a, b) @lut;
}
`)
	if st.Luts != 8 {
		t.Errorf("LUTs = %d, want 8", st.Luts)
	}
}

func TestLutAddEmitsCarryChain(t *testing.T) {
	v, st := compile(t, `
def add8(a:i8, b:i8) -> (y:i8) {
    y:i8 = add(a, b) @lut;
}
`)
	if st.Luts != 8 || st.Carries != 1 {
		t.Errorf("stats = %+v, want 8 LUTs + 1 CARRY8", st)
	}
	if !strings.Contains(v, "CARRY8") {
		t.Errorf("no CARRY8:\n%s", v)
	}
}

func TestWideAddSplitsCarry(t *testing.T) {
	_, st := compile(t, `
def add32(a:i32, b:i32) -> (y:i32) {
    y:i32 = add(a, b) @lut;
}
`)
	if st.Carries != 4 {
		t.Errorf("CARRY8s = %d, want 4 for 32 bits", st.Carries)
	}
}

func TestDspInstance(t *testing.T) {
	v, st := compile(t, `
def ma(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = mul(a, b) @dsp;
    y:i8 = add(t0, c) @dsp;
}
`)
	if st.Dsps != 1 {
		t.Fatalf("DSPs = %d, want 1 fused muladd", st.Dsps)
	}
	for _, want := range []string{
		"DSP48E2 # (",
		`.FUNC("dsp_muladd_i8")`,
		`LOC = "DSP48E2_X`,
		".A(a), .B(b), .C(c), .P(y)",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("missing %q:\n%s", want, v)
		}
	}
}

func TestRegisterExpandsToFDRE(t *testing.T) {
	v, st := compile(t, `
def hold(a:i8, en:bool) -> (y:i8) {
    y:i8 = reg[5](a, en) @lut;
}
`)
	if st.FFs != 8 {
		t.Fatalf("FFs = %d, want 8", st.FFs)
	}
	for _, want := range []string{
		"module hold(input clk, input [7:0] a, input en, output [7:0] y);",
		"FDRE # (.INIT(1'h1))", // bit 0 of init 5
		".C(clk), .CE(en)",
		`BEL = "AFF"`,
	} {
		if !strings.Contains(v, want) {
			t.Errorf("missing %q:\n%s", want, v)
		}
	}
}

func TestRegInitBitsDistributed(t *testing.T) {
	v, _ := compile(t, `
def hold(a:i8, en:bool) -> (y:i8) {
    y:i8 = reg[5](a, en) @lut;
}
`)
	// init 5 = 0b101: ff0 and ff2 get INIT 1, ff1 gets INIT 0.
	if !strings.Contains(v, "y_ff1") || !strings.Contains(v, "y_ff2") {
		t.Fatalf("missing FF instances:\n%s", v)
	}
	seg := v[strings.Index(v, "y_ff1")-80 : strings.Index(v, "y_ff1")]
	if !strings.Contains(seg, "INIT(1'h0)") {
		t.Errorf("ff1 should have INIT 0:\n%s", seg)
	}
}

func TestWireInstructionsAreAssigns(t *testing.T) {
	v, st := compile(t, `
def shifts(a:i8) -> (y:i8, z:i8, w:i8) {
    t0:i8 = const[5];
    y:i8 = sll[1](t0);
    z:i8 = srl[2](a);
    w:i8 = sra[3](a);
}
`)
	if st.Luts != 0 && st.Dsps != 0 {
		t.Errorf("wire-only program consumed primitives: %+v", st)
	}
	for _, want := range []string{
		"assign t0 = 8'h5;",
		"assign y = {t0[6:0], 1'h0};",
		"assign z = {2'h0, a[7:2]};",
		"assign w = {{3{a[7]}}, a[7:3]};",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("missing %q:\n%s", want, v)
		}
	}
}

func TestSliceAndCat(t *testing.T) {
	v, _ := compile(t, `
def sc(a:i8) -> (y:i8) {
    hi:i4 = slice[7, 4](a);
    lo:i4 = slice[3, 0](a);
    y:i8 = cat(hi, lo);
}
`)
	for _, want := range []string{
		"assign hi = a[7:4];",
		"assign lo = a[3:0];",
		"assign y = {lo, hi};", // first cat operand is the low half
	} {
		if !strings.Contains(v, want) {
			t.Errorf("missing %q:\n%s", want, v)
		}
	}
}

func TestVectorLaneSlice(t *testing.T) {
	v, _ := compile(t, `
def lanes(a:i8<4>) -> (y:i8) {
    y:i8 = slice[2](a);
}
`)
	if !strings.Contains(v, "assign y = a[23:16];") {
		t.Errorf("lane slice wrong:\n%s", v)
	}
}

func TestComparatorOutput(t *testing.T) {
	v, st := compile(t, `
def cmp(a:i8, b:i8) -> (y:bool) {
    y:bool = lt(a, b) @lut;
}
`)
	if st.Carries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !strings.Contains(v, `.MODE("lt")`) {
		t.Errorf("comparator mode missing:\n%s", v)
	}
}

func TestMuxUsesLUT3(t *testing.T) {
	v, st := compile(t, `
def m(c:bool, a:i8, b:i8) -> (y:i8) {
    y:i8 = mux(c, a, b) @lut;
}
`)
	if st.Luts != 8 {
		t.Errorf("LUTs = %d", st.Luts)
	}
	if !strings.Contains(v, "LUT3 # (.INIT(8'hca))") {
		t.Errorf("mux LUT3 missing:\n%s", v)
	}
}

func TestLutMultiplierArea(t *testing.T) {
	_, st := compile(t, `
def m(a:i4, b:i4) -> (y:i4) {
    y:i4 = mul(a, b) @lut;
}
`)
	// 16 partial-product LUTs + 3 adder rows of 4 propagate LUTs.
	if st.Luts != 16+12 {
		t.Errorf("LUTs = %d, want 28", st.Luts)
	}
}

// TestGenerateStatsHandRules pins whole Stats on kernels whose counts are
// computable by hand: these counts are what /explore scores variants by.
// The 8-bit adder (TestLutAddEmitsCarryChain) and register
// (TestRegisterExpandsToFDRE) are pinned above.
func TestGenerateStatsHandRules(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      Stats
	}{
		// 8-bit array multiplier: 64 partial products + 7 adder rows
		// of (8 LUTs + 1 CARRY8) each.
		{"mul8", `def f(a:i8, b:i8) -> (y:i8) {
    y:i8 = mul(a, b) @lut;
}`, Stats{Luts: 64 + 7*8, Carries: 7}},
		// A comparator counts operand bits (8), not result bits (1).
		{"eq8", `def f(a:i8, b:i8) -> (y:bool) {
    y:bool = eq(a, b) @lut;
}`, Stats{Luts: 8, Carries: 1}},
		// A DSP instruction is one slice regardless of width.
		{"dspmul", `def f(a:i24, b:i24) -> (y:i24) {
    y:i24 = mul(a, b) @dsp;
}`, Stats{Dsps: 1}},
	} {
		if _, st := compile(t, c.src); st != c.want {
			t.Errorf("%s: stats = %+v, want %+v", c.name, st, c.want)
		}
	}
}

func TestUnplacedRejected(t *testing.T) {
	f, err := asm.Parse(`
def f(a:i8, b:i8) -> (y:i8) {
    y:i8 = dsp_add_i8(a, b) @dsp(??, ??);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Generate(f, ultrascale.Target()); err == nil {
		t.Error("Generate accepted unresolved locations")
	}
}

func TestVectorDspPorts(t *testing.T) {
	v, st := compile(t, `
def vadd(a:i8<4>, b:i8<4>, en:bool) -> (y:i8<4>) {
    t0:i8<4> = add(a, b) @dsp;
    y:i8<4> = reg[0](t0, en) @dsp;
}
`)
	if st.Dsps != 1 {
		t.Fatalf("DSPs = %d", st.Dsps)
	}
	for _, want := range []string{
		`.USE_SIMD("FOUR12")`,
		".CE(en)",
		".CLK(clk)",
		"input [31:0] a",
		".PREG(1)",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("missing %q:\n%s", want, v)
		}
	}
}

func TestStatsLUTsAccessor(t *testing.T) {
	s := Stats{Luts: 5, Carries: 2}
	if s.LUTs() != 5 {
		t.Errorf("LUTs() = %d", s.LUTs())
	}
}

// TestDspConfiguration pins the derived DSP48E2 parameters: multiplexer
// opmodes, subtract alumode, SIMD mode, and cascade port routing.
func TestDspConfiguration(t *testing.T) {
	v, _ := compile(t, `
def cfgs(a:i8, b:i8, c:i8, en:bool) -> (y:i8, d:i8) {
    t0:i8 = mul(a, b) @dsp;
    y:i8 = add(t0, c) @dsp;
    d:i8 = sub(a, b) @dsp;
}
`)
	for _, want := range []string{
		`.OPMODE(9'h35)`, // fused muladd: Z=C (011), Y=M, X=M
		`.OPMODE(9'h3f)`, // ALU op: Z=C, Y=C, X=A:B
		`.ALUMODE(4'h3)`, // subtract
		`.ALUMODE(4'h0)`, // add
		`.USE_SIMD("ONE48")`,
	} {
		if !strings.Contains(v, want) {
			t.Errorf("missing %q:\n%s", want, v)
		}
	}
}

func TestDspCascadePorts(t *testing.T) {
	// A cascaded pair after the layout optimization: producer drives
	// PCOUT, consumer reads PCIN with Z=PCIN in its opmode.
	f, err := ir.Parse(`
def dot(a0:i8, b0:i8, a1:i8, b1:i8, in:i8) -> (y:i8) {
    m0:i8 = mul(a0, b0) @dsp;
    s0:i8 = add(m0, in) @dsp;
    m1:i8 = mul(a1, b1) @dsp;
    y:i8 = add(m1, s0) @dsp;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	af, err := isel.SelectWithLibrary(f, lib, isel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cas := ultrascale.Cascades()
	af, _, err = cascade.Apply(af, ultrascale.Target(), cascade.Options{Cascades: cas})
	if err != nil {
		t.Fatal(err)
	}
	res, err := place.PlaceContext(context.Background(), af, ultrascale.Device(), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Generate(res.Fn, ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	v := m.String()
	for _, want := range []string{
		".PCOUT(",        // producer drives the cascade output
		".PCIN(",         // consumer reads the cascade input
		`.OPMODE(9'h15)`, // Z=PCIN (001), Y=M, X=M
	} {
		if !strings.Contains(v, want) {
			t.Errorf("missing %q:\n%s", want, v)
		}
	}
}
