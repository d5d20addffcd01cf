package verilog

import (
	"testing"
)

func roundTrip(t *testing.T, m *Module) {
	t.Helper()
	printed := m.String()
	back, err := ParseModule(printed)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, printed)
	}
	if got := back.String(); got != printed {
		t.Errorf("round trip mismatch:\n--- printed ---\n%s--- reparsed ---\n%s", printed, got)
	}
}

func TestRoundTripStructural(t *testing.T) {
	m := &Module{Name: "bit_and"}
	m.AddPort(Input, "a", 1)
	m.AddPort(Input, "b", 1)
	m.AddPort(Output, "y", 1)
	m.AddItem(Instance{
		Attrs:  []Attr{{Key: "LOC", Value: "SLICE_X3Y7"}, {Key: "BEL", Value: "C6LUT"}},
		Module: "LUT2",
		Name:   "i0",
		Params: []Connection{{Name: "INIT", Expr: HexLit(4, 0x8)}},
		Ports: []Connection{
			{Name: "I0", Expr: Ref("a")},
			{Name: "I1", Expr: Ref("b")},
			{Name: "O", Expr: Ref("y")},
		},
	})
	roundTrip(t, m)
}

func TestRoundTripBehavioral(t *testing.T) {
	m := &Module{Name: "beh", Attrs: []Attr{{Key: "use_dsp", Value: "yes"}}}
	m.AddPort(Input, "clk", 1)
	m.AddPort(Input, "a", 8)
	m.AddPort(Output, "y", 8)
	m.AddItem(
		Wire{Name: "t", Width: 8},
		Reg{Name: "acc", Width: 8, HasInit: true, Init: 5},
		Assign{LHS: Ref("t"), RHS: Binary{Op: "+", A: Ref("a"), B: Ref("acc")}},
		Assign{LHS: Ref("y"), RHS: Ref("acc")},
		AlwaysFF{Clock: "clk", Stmts: []Stmt{
			If{
				Cond: Binary{Op: ">", A: Unary{Op: "$signed", X: Ref("a")}, B: Int(0)},
				Then: []Stmt{NonBlocking{LHS: Ref("acc"), RHS: Ref("t")}},
				Else: []Stmt{NonBlocking{LHS: Ref("acc"), RHS: HexLit(8, 0)}},
			},
		}},
	)
	roundTrip(t, m)
}

func TestRoundTripExpressions(t *testing.T) {
	m := &Module{Name: "exprs"}
	m.AddPort(Input, "a", 8)
	m.AddPort(Output, "y", 8)
	m.AddItem(
		Assign{LHS: Ref("y"), RHS: Concat{Parts: []Expr{
			Repeat{N: 3, X: Index(Ref("a"), 7)},
			Slice{X: Ref("a"), Hi: 7, Lo: 3},
		}}},
		Assign{LHS: Index(Ref("y"), 0), RHS: Ternary{
			Cond: Ref("a"),
			Then: Unary{Op: "~", X: Index(Ref("a"), 1)},
			Else: HexLit(1, 1),
		}},
	)
	roundTrip(t, m)
}

func TestRoundTripCase(t *testing.T) {
	m := &Module{Name: "fsm"}
	m.AddPort(Input, "clk", 1)
	m.AddPort(Output, "s", 2)
	m.AddItem(
		Reg{Name: "state", Width: 2, HasInit: true},
		Assign{LHS: Ref("s"), RHS: Ref("state")},
		AlwaysFF{Clock: "clk", Stmts: []Stmt{
			Case{
				Subject: Ref("state"),
				Arms: []CaseArm{
					{Match: HexLit(2, 0), Stmts: []Stmt{NonBlocking{LHS: Ref("state"), RHS: HexLit(2, 1)}}},
					{Match: HexLit(2, 1), Stmts: []Stmt{Blocking{LHS: Ref("state"), RHS: HexLit(2, 2)}}},
				},
				Default: []Stmt{NonBlocking{LHS: Ref("state"), RHS: HexLit(2, 0)}},
			},
		}},
	)
	roundTrip(t, m)
}

func TestRoundTripAlwaysComb(t *testing.T) {
	m := &Module{Name: "comb"}
	m.AddPort(Input, "a", 4)
	m.AddPort(Output, "y", 4)
	m.AddItem(
		Reg{Name: "t", Width: 4},
		AlwaysComb{Stmts: []Stmt{
			Blocking{LHS: Ref("t"), RHS: Unary{Op: "~", X: Ref("a")}},
		}},
		Assign{LHS: Ref("y"), RHS: Ref("t")},
	)
	roundTrip(t, m)
}

func TestParseErrors(t *testing.T) {
	bad := []struct{ name, src string }{
		{"no module", "wire x;"},
		{"bad direction", "module m(inout a); endmodule"},
		{"unterminated", "module m(input a);"},
		{"bad range", "module m(input [7:1] a); endmodule"},
		{"garbage item", "module m(input a); 42; endmodule"},
		{"unterminated string", `module m(input a); X # (.P(")) x (.A(a)); endmodule`},
		{"bad sized literal", "module m(input a); assign a = 8'q3; endmodule"},
	}
	for _, tt := range bad {
		if _, err := ParseModule(tt.src); err == nil {
			t.Errorf("%s: parse succeeded", tt.name)
		}
	}
}

func TestParseSizedLiteralBases(t *testing.T) {
	m, err := ParseModule(`
module m(output [7:0] y);
    assign y = 8'b1010 + 8'd12 + 8'hff;
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := m.Items[0].(Assign)
	if !ok {
		t.Fatalf("item = %#v", m.Items[0])
	}
	// Left-assoc: ((10 + 12) + 255)
	outer, ok := a.RHS.(Binary)
	if !ok {
		t.Fatalf("rhs = %#v", a.RHS)
	}
	if lit, ok := outer.B.(Lit); !ok || lit.Value != 0xff {
		t.Errorf("outer.B = %#v", outer.B)
	}
	inner := outer.A.(Binary)
	if lit := inner.A.(Lit); lit.Value != 0b1010 {
		t.Errorf("binary literal = %#v", inner.A)
	}
	if lit := inner.B.(Lit); lit.Value != 12 {
		t.Errorf("decimal literal = %#v", inner.B)
	}
}

func TestParseComments(t *testing.T) {
	m, err := ParseModule(`
// header comment
module m(input a, output y); // trailing
    assign y = a; // another
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "m" || len(m.Items) != 1 {
		t.Errorf("module = %+v", m)
	}
}
