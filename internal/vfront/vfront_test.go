package vfront

import (
	"math/rand"
	"strings"
	"testing"

	"reticle/internal/behav"
	"reticle/internal/interp"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/target/ultrascale"
	"reticle/internal/vivado"
)

func TestParseHandwrittenBehavioral(t *testing.T) {
	// What a Fig. 3 style genvar loop elaborates to, written by hand.
	f, err := Parse(`
module adder2(input [7:0] a0, input [7:0] b0, input [7:0] a1, input [7:0] b1,
              output [7:0] y0, output [7:0] y1);
    assign y0 = a0 + b0;
    assign y1 = a1 + b1;
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Inputs) != 4 || len(f.Outputs) != 2 {
		t.Fatalf("ports: %d in, %d out", len(f.Inputs), len(f.Outputs))
	}
	adds := 0
	for _, in := range f.Body {
		if in.Op == ir.OpAdd {
			adds++
		}
	}
	if adds != 2 {
		t.Errorf("adds = %d", adds)
	}
}

func TestParseRegisterIdioms(t *testing.T) {
	f, err := Parse(`
module acc(input clk, input [7:0] a, input en, output [7:0] y);
    reg [7:0] q = 8'h7;
    assign y = q;
    always @(posedge clk) begin
        if (en) begin
            q <= q + a;
        end
    end
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := interp.Run(f, interp.Trace{
		{"a": ir.ScalarValue(ir.Int(8), 3), "en": ir.BoolValue(true)},
		{"a": ir.ScalarValue(ir.Int(8), 3), "en": ir.BoolValue(true)},
		{"a": ir.ScalarValue(ir.Int(8), 3), "en": ir.BoolValue(false)},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{7, 10, 13}
	for i, w := range want {
		if got := out[i]["y"].Scalar(); got != w {
			t.Errorf("cycle %d: y = %d, want %d", i, got, w)
		}
	}
}

// scalarRoundTrip checks behav -> text -> vfront equivalence on programs
// whose port types survive flattening (no vectors).
func scalarRoundTrip(t *testing.T, f *ir.Func, seed int64) {
	t.Helper()
	m, err := behav.Translate(f, behav.Base)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	back, err := Parse(m.String())
	if err != nil {
		t.Fatalf("vfront: %v\n%s", err, m.String())
	}
	rng := rand.New(rand.NewSource(seed))
	tr := irgen.RandomTrace(rng, f, 12)
	want, err := interp.Run(f, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := interp.Run(back, tr)
	if err != nil {
		t.Fatalf("round-tripped program does not run: %v\n%s", err, back)
	}
	for i := range want {
		for _, p := range f.Outputs {
			if !want[i][p.Name].Equal(got[i][p.Name]) {
				t.Fatalf("cycle %d: %s = %s, want %s\nverilog:\n%s\nback:\n%s",
					i, p.Name, got[i][p.Name], want[i][p.Name], m.String(), back)
			}
		}
	}
}

func TestBehavRoundTripScalar(t *testing.T) {
	src := `
def k(a:i8, b:i8, c:i8, en:bool) -> (y:i8, f:bool) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    r:i8 = reg[5](t1, en) @??;
    t2:i8 = sub(r, a) @??;
    y:i8 = mux(en, t2, c) @lut;
    f:bool = lt(y, c) @lut;
}
`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	scalarRoundTrip(t, f, 31)
}

func TestBehavRoundTripWireOps(t *testing.T) {
	src := `
def w(a:i8) -> (y:i8, z:i8, q:i8) {
    hi:i4 = slice[7, 4](a);
    lo:i4 = slice[3, 0](a);
    y:i8 = cat(hi, lo);
    z:i8 = sra[3](a);
    t:i8 = srl[2](a);
    c:i8 = const[100];
    q:i8 = add(t, c) @??;
}
`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	scalarRoundTrip(t, f, 32)
}

func TestBehavRoundTripRandomScalarPrograms(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		f := irgen.Generate(rng, irgen.Config{Instrs: 14, WithVectors: false})
		scalarRoundTrip(t, f, 5000+seed)
	}
}

// TestVectorStructureIsLost is the §7.2 point made structural: a vector
// program round-tripped through behavioral Verilog comes back as flat
// scalars, and the baseline toolchain then cannot use SIMD: one DSP per
// original lane group is impossible, one DSP per scalar add is what's left.
func TestVectorStructureIsLost(t *testing.T) {
	src := `
def v(a:i8<4>, b:i8<4>) -> (y:i8<4>) {
    y:i8<4> = add(a, b) @??;
}
`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := behav.Translate(f, behav.Hint)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(m.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, m.String())
	}
	// Ports flattened: i8<4> became i32.
	if got, _ := back.TypeOf("a"); got != ir.Int(32) {
		t.Errorf("a round-tripped as %s", got)
	}
	// Four scalar 8-bit adds remain.
	adds := 0
	for _, in := range back.Body {
		if in.Op == ir.OpAdd {
			adds++
			if in.Type != ir.Int(8) {
				t.Errorf("add of type %s", in.Type)
			}
		}
	}
	if adds != 4 {
		t.Errorf("adds = %d, want 4 per-lane", adds)
	}
	// Feeding the recovered program to the baseline toolchain: 4 scalar
	// DSPs, never 1 SIMD DSP.
	net, err := vivado.Synthesize(back, ultrascale.Device(), true)
	if err != nil {
		t.Fatal(err)
	}
	if net.DspsUsed != 4 {
		t.Errorf("baseline used %d DSPs, structural flattening should force 4", net.DspsUsed)
	}
}

func TestRejectsStructural(t *testing.T) {
	_, err := Parse(`
module s(input a, output y);
    LUT2 # (.INIT(4'h8)) i0 (.I0(a), .I1(a), .O(y));
endmodule
`)
	if err == nil || !strings.Contains(err.Error(), "structural") {
		t.Errorf("err = %v", err)
	}
}

func TestRejectsUnassignedBits(t *testing.T) {
	_, err := Parse(`
module p(input [7:0] a, output [7:0] y);
    assign y[3:0] = a[3:0];
endmodule
`)
	if err == nil || !strings.Contains(err.Error(), "unassigned") {
		t.Errorf("err = %v", err)
	}
}

func TestRejectsDynamicShift(t *testing.T) {
	_, err := Parse(`
module d(input [7:0] a, input [7:0] s, output [7:0] y);
    assign y = a << s;
endmodule
`)
	if err == nil {
		t.Error("dynamic shift accepted")
	}
}

func TestRepeatAndConcatExpressions(t *testing.T) {
	// Sign-extension idiom: {{4{a[7]}}, a[7:4]} — repeat plus concat.
	f, err := Parse(`
module sx(input [7:0] a, output [7:0] y);
    assign y = {{4{a[7]}}, a[7:4]};
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := interp.Run(f, interp.Trace{
		{"a": ir.ScalarValue(ir.Int(8), -16)}, // 0xF0: sign bit set
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0]["y"].Scalar(); got != -1 { // 0xFF
		t.Errorf("y = %d, want -1", got)
	}
}

func TestLiteralWidthsFromContext(t *testing.T) {
	f, err := Parse(`
module lits(input [7:0] a, output [7:0] y, output z);
    assign y = a + 8'h10;
    assign z = a == 8'd16;
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := interp.Run(f, interp.Trace{{"a": ir.ScalarValue(ir.Int(8), 16)}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0]["y"].Scalar() != 32 || !out[0]["z"].Bool() {
		t.Errorf("y = %s, z = %s", out[0]["y"], out[0]["z"])
	}
}

func TestVfrontErrorPaths(t *testing.T) {
	bad := []struct{ name, src string }{
		{"undeclared assign", `module m(input a, output y); assign q = a; endmodule`},
		{"undeclared read", `module m(input a, output y); assign y = q; endmodule`},
		{"width mismatch", `module m(input [7:0] a, output [3:0] y); assign y = a; endmodule`},
		{"clocked to wire", `module m(input clk, input a, output y);
            wire q;
            assign y = q;
            always @(posedge clk) begin q <= a; end
        endmodule`},
		{"else in clocked if", `module m(input clk, input a, output y);
            reg q;
            assign y = q;
            always @(posedge clk) begin
                if (a) begin q <= a; end else begin q <= a; end
            end
        endmodule`},
		{"case in clocked block", `module m(input clk, input a, output y);
            reg q;
            assign y = q;
            always @(posedge clk) begin
                case (a)
                    1'h0: begin q <= a; end
                endcase
            end
        endmodule`},
		{"blocking assignment in clocked block", `module m(input clk, input a, output y);
            reg q;
            assign y = q;
            always @(posedge clk) begin q = a; end
        endmodule`},
		{"always @* block", `module m(input a, output y);
            reg q;
            assign y = q;
            always @* begin q = a; end
        endmodule`},
		{"overlapping slices", `module m(input [7:0] a, output [7:0] y);
            assign y[5:0] = a[5:0];
            assign y[7:4] = a[7:4];
        endmodule`},
		{"1-bit comparison", `module m(input a, input b, output y);
            assign y = a == b;
        endmodule`},
		{"slice of expression", `module m(input [7:0] a, output y);
            assign y = (a + a)[0];
        endmodule`},
	}
	for _, tt := range bad {
		if _, err := Parse(tt.src); err == nil {
			t.Errorf("%s: accepted", tt.name)
		}
	}
}

func TestTernaryInBehavioral(t *testing.T) {
	f, err := Parse(`
module sel(input c, input [7:0] a, input [7:0] b, output [7:0] y);
    assign y = c ? a : b;
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := interp.Run(f, interp.Trace{{
		"c": ir.BoolValue(false),
		"a": ir.ScalarValue(ir.Int(8), 1),
		"b": ir.ScalarValue(ir.Int(8), 2),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0]["y"].Scalar() != 2 {
		t.Errorf("y = %s", out[0]["y"])
	}
}
