package verilog

import (
	"strings"
	"testing"
)

// TestFig2bStructural reproduces the paper's Figure 2b: a LUT2 instance.
func TestFig2bStructural(t *testing.T) {
	m := &Module{Name: "bit_and"}
	m.AddPort(Input, "a", 1)
	m.AddPort(Input, "b", 1)
	m.AddPort(Output, "y", 1)
	m.AddItem(Instance{
		Module: "LUT2",
		Name:   "i0",
		Params: []Connection{{Name: "INIT", Expr: HexLit(4, 0x8)}},
		Ports: []Connection{
			{Name: "I0", Expr: Ref("a")},
			{Name: "I1", Expr: Ref("b")},
			{Name: "O", Expr: Ref("y")},
		},
	})
	got := m.String()
	for _, want := range []string{
		"module bit_and(input a, input b, output y);",
		"LUT2 # (.INIT(4'h8))",
		"i0 (.I0(a), .I1(b), .O(y));",
		"endmodule",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestFig2cLayoutAnnotations reproduces Figure 2c: LOC and BEL attributes.
func TestFig2cLayoutAnnotations(t *testing.T) {
	m := &Module{Name: "bit_and"}
	m.AddPort(Input, "a", 1)
	m.AddPort(Input, "b", 1)
	m.AddPort(Output, "y", 1)
	m.AddItem(Instance{
		Attrs:  []Attr{{Key: "LOC", Value: "SLICE_X0Y0"}, {Key: "BEL", Value: "A6LUT"}},
		Module: "LUT2",
		Name:   "i0",
		Params: []Connection{{Name: "INIT", Expr: HexLit(4, 0x8)}},
		Ports: []Connection{
			{Name: "I0", Expr: Ref("a")},
			{Name: "I1", Expr: Ref("b")},
			{Name: "O", Expr: Ref("y")},
		},
	})
	got := m.String()
	if !strings.Contains(got, `(* LOC = "SLICE_X0Y0", BEL = "A6LUT" *)`) {
		t.Errorf("missing layout attributes:\n%s", got)
	}
}

func TestBehavioralModule(t *testing.T) {
	m := &Module{
		Name:  "dsp_add",
		Attrs: []Attr{{Key: "use_dsp", Value: "yes"}},
	}
	m.AddPort(Input, "clk", 1)
	m.AddPort(Input, "a", 8)
	m.AddPort(Input, "b", 8)
	m.AddPort(Output, "y", 8)
	m.AddItem(
		Reg{Name: "acc", Width: 8, HasInit: true, Init: 0},
		Assign{LHS: Ref("y"), RHS: Ref("acc")},
		AlwaysFF{Clock: "clk", Stmts: []Stmt{
			NonBlocking{LHS: Ref("acc"), RHS: Binary{Op: "+", A: Ref("a"), B: Ref("b")}},
		}},
	)
	got := m.String()
	for _, want := range []string{
		`(* use_dsp = "yes" *)`,
		"input [7:0] a",
		"reg [7:0] acc = 8'h0;",
		"always @(posedge clk) begin",
		"acc <= a + b;",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestExprString(t *testing.T) {
	tests := []struct {
		e    Expr
		want string
	}{
		{Ref("x"), "x"},
		{HexLit(8, 0xff), "8'hff"},
		{HexLit(4, 0x18), "4'h8"}, // masked to width
		{Int(-3), "-3"},
		{Str("yes"), `"yes"`},
		{Unary{Op: "~", X: Ref("x")}, "~x"},
		{Binary{Op: "+", A: Ref("a"), B: Ref("b")}, "a + b"},
		{Binary{Op: "&", A: Binary{Op: "|", A: Ref("a"), B: Ref("b")}, B: Ref("c")}, "(a | b) & c"},
		{Ternary{Cond: Ref("c"), Then: Ref("a"), Else: Ref("b")}, "c ? a : b"},
		{Concat{Parts: []Expr{Ref("hi"), Ref("lo")}}, "{hi, lo}"},
		{Slice{X: Ref("x"), Hi: 7, Lo: 4}, "x[7:4]"},
		{Index(Ref("x"), 3), "x[3]"},
		{Repeat{N: 4, X: Ref("b")}, "{4{b}}"},
	}
	for _, tt := range tests {
		if got := ExprString(tt.e); got != tt.want {
			t.Errorf("ExprString(%#v) = %q, want %q", tt.e, got, tt.want)
		}
	}
}

func TestIfAndCase(t *testing.T) {
	m := &Module{Name: "fsm"}
	m.AddPort(Input, "clk", 1)
	m.AddPort(Input, "go", 1)
	m.AddPort(Output, "s", 2)
	m.AddItem(
		Reg{Name: "state", Width: 2, HasInit: true},
		Assign{LHS: Ref("s"), RHS: Ref("state")},
		AlwaysFF{Clock: "clk", Stmts: []Stmt{
			If{
				Cond: Ref("go"),
				Then: []Stmt{
					Case{
						Subject: Ref("state"),
						Arms: []CaseArm{
							{Match: HexLit(2, 0), Stmts: []Stmt{NonBlocking{LHS: Ref("state"), RHS: HexLit(2, 1)}}},
							{Match: HexLit(2, 1), Stmts: []Stmt{NonBlocking{LHS: Ref("state"), RHS: HexLit(2, 2)}}},
						},
						Default: []Stmt{NonBlocking{LHS: Ref("state"), RHS: HexLit(2, 0)}},
					},
				},
				Else: []Stmt{NonBlocking{LHS: Ref("state"), RHS: Ref("state")}},
			},
		}},
	)
	got := m.String()
	for _, want := range []string{
		"if (go) begin",
		"case (state)",
		"2'h0: begin",
		"default: begin",
		"end else begin",
		"endcase",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestWireAndComment(t *testing.T) {
	m := &Module{Name: "w"}
	m.AddPort(Output, "y", 16)
	m.AddItem(
		Comment("a sixteen-bit wire"),
		Wire{Name: "t", Width: 16},
		Wire{Name: "bit", Width: 1},
		Assign{LHS: Ref("y"), RHS: Ref("t")},
	)
	got := m.String()
	for _, want := range []string{
		"// a sixteen-bit wire",
		"wire [15:0] t;",
		"wire bit;",
		"output [15:0] y",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRawItem(t *testing.T) {
	m := &Module{Name: "r"}
	m.AddPort(Output, "y", 1)
	m.AddItem(Raw("genvar i;\nassign y = 1'b0;"))
	got := m.String()
	if !strings.Contains(got, "genvar i;") || !strings.Contains(got, "assign y = 1'b0;") {
		t.Errorf("raw item mangled:\n%s", got)
	}
}
