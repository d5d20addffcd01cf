package asm

import (
	"strings"
	"testing"

	"reticle/internal/ir"
	"reticle/internal/tdl"
)

// fig11a is the paper's Figure 11a: two muladds without layout constraints.
const fig11a = `
def fig11a(a:i8, b:i8, c:i8, d:i8, in:i8) -> (t1:i8) {
    t0:i8 = muladd(a, b, in) @dsp(??, ??);
    t1:i8 = muladd(c, d, t0) @dsp(??, ??);
}
`

// fig11b is Figure 11b: the cascaded version with relative coordinates.
const fig11b = `
def fig11b(a:i8, b:i8, c:i8, d:i8, in:i8) -> (t1:i8) {
    t0:i8 = muladd_co(a, b, in) @dsp(x, y);
    t1:i8 = muladd_ci(c, d, t0) @dsp(x, y+1);
}
`

func TestParseFig11a(t *testing.T) {
	f, err := Parse(fig11a)
	if err != nil {
		t.Fatal(err)
	}
	if f.AsmCount() != 2 {
		t.Fatalf("asm count = %d", f.AsmCount())
	}
	in := f.Body[0]
	if in.Name != "muladd" || in.Loc.Prim != ir.ResDsp {
		t.Errorf("instr = %s", in)
	}
	if !in.Loc.X.Wild || !in.Loc.Y.Wild {
		t.Errorf("loc = %s", in.Loc)
	}
	if f.Resolved() {
		t.Error("wildcard program reported resolved")
	}
}

func TestParseFig11b(t *testing.T) {
	f, err := Parse(fig11b)
	if err != nil {
		t.Fatal(err)
	}
	i0, i1 := f.Body[0], f.Body[1]
	if i0.Loc.X.Var != "x" || i0.Loc.Y.Var != "y" || i0.Loc.Y.Off != 0 {
		t.Errorf("i0 loc = %s", i0.Loc)
	}
	if i1.Loc.Y.Var != "y" || i1.Loc.Y.Off != 1 {
		t.Errorf("i1 loc = %s", i1.Loc)
	}
	vars := f.CoordVars()
	if !vars["x"] || !vars["y"] || len(vars) != 2 {
		t.Errorf("coord vars = %v", vars)
	}
}

func TestCoordExpressions(t *testing.T) {
	tests := []struct {
		src  string
		want Coord
	}{
		{"??", Wildcard()},
		{"3", At(3)},
		{"x", VarPlus("x", 0)},
		{"y+1", VarPlus("y", 1)},
		{"y + 2", VarPlus("y", 2)},
		{"y-1", VarPlus("y", -1)},
		{"1+2", At(3)},
		{"2+y+3", VarPlus("y", 5)},
	}
	for _, tt := range tests {
		src := "def f(a:i8,b:i8,c:i8) -> (y:i8) { y:i8 = muladd(a,b,c) @dsp(" + tt.src + ", 0); }"
		f, err := Parse(src)
		if err != nil {
			t.Errorf("coord %q: %v", tt.src, err)
			continue
		}
		got := f.Body[0].Loc.X
		if got != tt.want {
			t.Errorf("coord %q = %+v, want %+v", tt.src, got, tt.want)
		}
	}
}

func TestCoordString(t *testing.T) {
	tests := []struct {
		c    Coord
		want string
	}{
		{Wildcard(), "??"},
		{At(7), "7"},
		{VarPlus("x", 0), "x"},
		{VarPlus("y", 1), "y+1"},
		{VarPlus("y", -2), "y-2"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("String(%+v) = %q, want %q", tt.c, got, tt.want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []struct {
		name, src string
	}{
		{"compute op without loc", `def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b); }`},
		{"unknown name without loc", `def f(a:i8, b:i8) -> (y:i8) { y:i8 = zork(a, b); }`},
		{"wildcard prim", `def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??(0, 0); }`},
		{"two vars in coord", `def f(a:i8,b:i8,c:i8) -> (y:i8) { y:i8 = muladd(a,b,c) @dsp(x+z, 0); }`},
		{"undefined arg", `def f(a:i8) -> (y:i8) { y:i8 = thing(a, q) @dsp(0, 0); }`},
		{"duplicate dest", `def f(a:i8) -> (y:i8) {
            y:i8 = thing(a) @dsp(0, 0);
            y:i8 = thing(a) @dsp(0, 1);
        }`},
		{"missing output", `def f(a:i8) -> (z:i8) { y:i8 = thing(a) @dsp(0, 0); }`},
		{"output type mismatch", `def f(a:i8) -> (y:i16) { y:i8 = thing(a) @dsp(0, 0); }`},
		{"duplicate output", `def f(a:i8) -> (y:i8, y:i8) { y:i8 = thing(a) @dsp(0, 0); }`},
		{"output names an input", `def f(a:i8) -> (a:i8) {}`},
		{"wildcard plus var", `def f(a:i8) -> (y:i8) { y:i8 = thing(a) @dsp(?? + x, 0); }`},
	}
	for _, tt := range bad {
		if _, err := Parse(tt.src); err == nil {
			t.Errorf("%s: parse succeeded", tt.name)
		}
	}
}

func TestWireInstructionsInAsm(t *testing.T) {
	src := `
def f(a:i8) -> (y:i8) {
    t0:i8 = const[5];
    t1:i8 = sll[1](a);
    y:i8 = thing(t0, t1) @lut(??, ??);
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Body[0].IsWire() || !f.Body[1].IsWire() || f.Body[2].IsWire() {
		t.Error("wire/asm classification wrong")
	}
	irIn := f.Body[1].WireIR()
	if irIn.Op != ir.OpSll || irIn.Attrs[0] != 1 {
		t.Errorf("WireIR = %s", irIn)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	for _, src := range []string{fig11a, fig11b} {
		f1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := Parse(f1.String())
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, f1)
		}
		if f1.String() != f2.String() {
			t.Errorf("round trip mismatch:\n%s\nvs\n%s", f1, f2)
		}
	}
}

const testTDL = `
muladd[dsp, 1, 3](a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = mul(a, b);
    y:i8 = add(t0, c);
}
addrega[lut, 1, 2](a:i8, b:i8, en:bool) -> (y:i8) {
    t0:i8 = add(a, b);
    y:i8 = reg[0](t0, en);
}
`

func testTarget(t *testing.T) *tdl.Target {
	t.Helper()
	target, err := tdl.Parse("test", testTDL)
	if err != nil {
		t.Fatal(err)
	}
	return target
}

func TestCheckTarget(t *testing.T) {
	target := testTarget(t)
	f, err := Parse(fig11a)
	if err != nil {
		t.Fatal(err)
	}
	// fig11a uses muladd only; muladd_co/_ci are absent from testTDL.
	if err := CheckTarget(f, target); err != nil {
		t.Fatal(err)
	}
	g, err := Parse(fig11b)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTarget(g, target); err == nil {
		t.Error("CheckTarget accepted undefined muladd_co")
	}
}

func TestCheckTargetSignatureMismatches(t *testing.T) {
	target := testTarget(t)
	bad := []struct {
		name, src, want string
	}{
		{
			"wrong prim",
			`def f(a:i8,b:i8,c:i8) -> (y:i8) { y:i8 = muladd(a,b,c) @lut(??, ??); }`,
			"occupies dsp",
		},
		{
			"wrong arity",
			`def f(a:i8,b:i8) -> (y:i8) { y:i8 = muladd(a,b) @dsp(??, ??); }`,
			"takes 3 arguments",
		},
		{
			"wrong arg type",
			`def f(a:i8,b:i8,c:i16) -> (y:i8) { y:i8 = muladd(a,b,c) @dsp(??, ??); }`,
			"want i8",
		},
		{
			"wrong result type",
			`def f(a:i8,b:i8,c:i8) -> (y:i16) { y:i16 = muladd(a,b,c) @dsp(??, ??); }`,
			"produces i8",
		},
	}
	for _, tt := range bad {
		f, err := Parse(tt.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tt.name, err)
		}
		err = CheckTarget(f, target)
		if err == nil {
			t.Errorf("%s: CheckTarget succeeded", tt.name)
			continue
		}
		if !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: error %q does not mention %q", tt.name, err, tt.want)
		}
	}
}

func TestExpandMulAdd(t *testing.T) {
	target := testTarget(t)
	f, err := Parse(fig11a)
	if err != nil {
		t.Fatal(err)
	}
	irf, err := Expand(f, target)
	if err != nil {
		t.Fatal(err)
	}
	// Two muladds expand to four IR instructions: mul, add, mul, add.
	if len(irf.Body) != 4 {
		t.Fatalf("expanded body:\n%s", irf)
	}
	ops := []ir.Op{irf.Body[0].Op, irf.Body[1].Op, irf.Body[2].Op, irf.Body[3].Op}
	want := []ir.Op{ir.OpMul, ir.OpAdd, ir.OpMul, ir.OpAdd}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %s, want %s", i, ops[i], want[i])
		}
	}
	// The expansion must carry the binding resource.
	if irf.Body[0].Res != ir.ResDsp {
		t.Errorf("expanded res = %s", irf.Body[0].Res)
	}
}

func TestExpandRegInitOverride(t *testing.T) {
	target := testTarget(t)
	src := `
def f(a:i8, b:i8, en:bool) -> (y:i8) {
    y:i8 = addrega[42](a, b, en) @lut(??, ??);
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	irf, err := Expand(f, target)
	if err != nil {
		t.Fatal(err)
	}
	var reg *ir.Instr
	for i := range irf.Body {
		if irf.Body[i].Op == ir.OpReg {
			reg = &irf.Body[i]
		}
	}
	if reg == nil {
		t.Fatal("no reg in expansion")
	}
	if reg.Attrs[0] != 42 {
		t.Errorf("reg init = %v, want [42]", reg.Attrs)
	}
}

func TestExpandKeepsBodyInitWithoutAttrs(t *testing.T) {
	target := testTarget(t)
	src := `
def f(a:i8, b:i8, en:bool) -> (y:i8) {
    y:i8 = addrega(a, b, en) @lut(??, ??);
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	irf, err := Expand(f, target)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range irf.Body {
		if in.Op == ir.OpReg && in.Attrs[0] != 0 {
			t.Errorf("reg init = %v, want body default [0]", in.Attrs)
		}
	}
}

func TestNormalizeRegAttrs(t *testing.T) {
	splat := ir.Instr{Dest: "r", Type: ir.Vector(8, 3), Op: ir.OpReg, Attrs: []int64{7}}
	got := NormalizeRegAttrs(splat)
	if len(got) != 3 || got[0] != 7 || got[2] != 7 {
		t.Errorf("splat normalize = %v", got)
	}
	per := ir.Instr{Dest: "r", Type: ir.Vector(8, 2), Op: ir.OpReg, Attrs: []int64{1, 2}}
	got = NormalizeRegAttrs(per)
	if len(got) != 2 || got[1] != 2 {
		t.Errorf("per-lane normalize = %v", got)
	}
}

func TestUnplacedLoc(t *testing.T) {
	l := Unplaced(ir.ResDsp)
	if l.String() != "dsp(??, ??)" {
		t.Errorf("Unplaced = %s", l)
	}
	if l.Resolved() {
		t.Error("wildcard loc reported resolved")
	}
	if !(Loc{Prim: ir.ResLut, X: At(1), Y: At(2)}).Resolved() {
		t.Error("literal loc not resolved")
	}
}

func TestCloneDeep(t *testing.T) {
	f, err := Parse(fig11a)
	if err != nil {
		t.Fatal(err)
	}
	g := f.Clone()
	g.Body[0].Args[0] = "zzz"
	if f.Body[0].Args[0] != "a" {
		t.Error("Clone shares memory")
	}
}

// TestCloneSlabs: a clone's slices are carved from shared slabs, so each
// is clamped to its length (an append cannot overwrite the next
// instruction's), and an empty slice stays nil.
func TestCloneSlabs(t *testing.T) {
	f, err := Parse(fig11a)
	if err != nil {
		t.Fatal(err)
	}
	f.Body = append(f.Body, Instr{Dest: "k", Type: f.Body[0].Type, Op: ir.OpConst, Attrs: []int64{}, Args: []string{}})
	g := f.Clone()
	if g.String() != f.String() {
		t.Fatalf("clone prints differently:\n%s\nvs\n%s", g, f)
	}
	for i, in := range g.Body {
		if cap(in.Args) != len(in.Args) || cap(in.Attrs) != len(in.Attrs) {
			t.Errorf("%s: capacity past length (args %d/%d, attrs %d/%d)",
				in.Dest, len(in.Args), cap(in.Args), len(in.Attrs), cap(in.Attrs))
		}
		if (len(in.Args) == 0) != (in.Args == nil) || (len(in.Attrs) == 0) != (in.Attrs == nil) {
			t.Errorf("%s: an empty slice is not nil, or a nil one is not empty", in.Dest)
		}
		_ = append(g.Body[i].Args, "appended")
	}
	if g.String() != f.String() {
		t.Errorf("an append to one clone slice reached another:\n%s\nvs\n%s", g, f)
	}
}
