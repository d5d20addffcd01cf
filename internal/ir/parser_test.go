package ir

import (
	"strings"
	"testing"
)

// fig6 is the paper's Figure 6 program (5*2 + 5), wrapped in a function.
const fig6 = `
def fig6(t0_unused:bool) -> (t2:i8) {
    t0:i8 = const[5];
    t1:i8 = sll[1](t0);
    t2:i8 = add(t0, t1) @??;
}
`

func TestParseFig6(t *testing.T) {
	f, err := Parse(fig6)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "fig6" || len(f.Body) != 3 {
		t.Fatalf("parsed %s with %d instructions", f.Name, len(f.Body))
	}
	if f.Body[0].Op != OpConst || f.Body[0].Attrs[0] != 5 {
		t.Errorf("instr 0 = %s", f.Body[0])
	}
	if f.Body[1].Op != OpSll || f.Body[1].Attrs[0] != 1 || f.Body[1].Args[0] != "t0" {
		t.Errorf("instr 1 = %s", f.Body[1])
	}
	add := f.Body[2]
	if add.Op != OpAdd || add.Res != ResAny || add.Args[0] != "t0" || add.Args[1] != "t1" {
		t.Errorf("instr 2 = %s", add)
	}
}

func TestParseResourceAnnotations(t *testing.T) {
	src := `
def bind(a:i8, b:i8) -> (y:i8, z:i8) {
    y:i8 = add(a, b) @lut;
    z:i8 = add(a, b) @dsp;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Body[0].Res != ResLut || f.Body[1].Res != ResDsp {
		t.Errorf("resources = %s, %s", f.Body[0].Res, f.Body[1].Res)
	}
}

func TestParseVectorProgram(t *testing.T) {
	// Figure 16b: vector addition.
	src := `
def vadd(a:i8<4>, b:i8<4>) -> (t0:i8<4>) {
    t0:i8<4> = add(a, b) @??;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Body[0].Type != Vector(8, 4) {
		t.Errorf("type = %s", f.Body[0].Type)
	}
}

func TestParseRegWithInit(t *testing.T) {
	src := `
def hold(a:i8, en:bool) -> (c:i8) {
    c:i8 = reg[0](a, en) @??;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Body[0].Op != OpReg || f.Body[0].Attrs[0] != 0 {
		t.Errorf("reg = %s", f.Body[0])
	}
}

func TestParseComments(t *testing.T) {
	src := `
// leading comment
def c(a:bool) -> (y:bool) { // trailing
    y:bool = id(a); // per-instruction comment
}
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseNegativeAttr(t *testing.T) {
	src := `
def neg(x:bool) -> (y:i8) {
    y:i8 = const[-3];
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Body[0].Attrs[0] != -3 {
		t.Errorf("attr = %d", f.Body[0].Attrs[0])
	}
}

func TestParseMultipleFunctions(t *testing.T) {
	src := `
def one(a:bool) -> (y:bool) { y:bool = id(a); }
def two(a:bool) -> (y:bool) { y:bool = not(a) @??; }
`
	fns, err := ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) != 2 || fns[0].Name != "one" || fns[1].Name != "two" {
		t.Errorf("fns = %v", fns)
	}
	if _, err := Parse(src); err == nil {
		t.Error("Parse accepted two functions")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct {
		name, src string
	}{
		{"no def", `fn f() -> (y:bool) {}`},
		{"missing arrow", `def f(a:bool) (y:bool) {}`},
		{"no outputs", `def f(a:bool) -> () { t:bool = id(a); }`},
		{"unknown op", `def f(a:bool) -> (y:bool) { y:bool = bogus(a); }`},
		{"unknown resource", `def f(a:i8,b:i8) -> (y:i8) { y:i8 = add(a,b) @bram; }`},
		{"missing semicolon", `def f(a:bool) -> (y:bool) { y:bool = id(a) }`},
		{"unclosed body", `def f(a:bool) -> (y:bool) { y:bool = id(a);`},
		{"bad type", `def f(a:u8) -> (y:u8) { y:u8 = id(a); }`},
		{"empty", ``},
		{"garbage attr", `def f(a:bool) -> (y:i8) { y:i8 = const[x]; }`},
	}
	for _, tt := range bad {
		if _, err := Parse(tt.src); err == nil {
			t.Errorf("%s: parse succeeded", tt.name)
		}
	}
}

// TestParseErrorMessages pins the parse-error contract: the exact message,
// line number included, for every case of TestParseErrors, every failing
// FuzzParse seed, and one case per kind of position-dependent error.
func TestParseErrorMessages(t *testing.T) {
	const big = "99999999999999999999"
	const bigErr = `bad integer "` + big + `": strconv.ParseInt: parsing "` + big + `": value out of range`
	cases := []struct{ src, want string }{
		{`fn f() -> (y:bool) {}`, `ir: line 1: expected "def", found "fn"`},
		{`def f(a:bool) (y:bool) {}`, `ir: line 1: expected "->", found "("`},
		{`def f(a:bool) -> () { t:bool = id(a); }`, `ir: function f has no outputs`},
		{`def f(a:bool) -> (y:bool) { y:bool = bogus(a); }`, `ir: line 1: ir: unknown operation "bogus"`},
		{`def f(a:i8,b:i8) -> (y:i8) { y:i8 = add(a,b) @bram; }`, `ir: line 1: ir: unknown resource "bram"`},
		{`def f(a:bool) -> (y:bool) { y:bool = id(a) }`, `ir: line 1: expected ";", found "}"`},
		{`def f(a:bool) -> (y:bool) { y:bool = id(a);`, `ir: line 1: expected identifier, found end of input`},
		{`def f(a:u8) -> (y:u8) { y:u8 = id(a); }`, `ir: ir: unknown type "u8"`},
		{``, `ir: no functions in input`},
		{`def f(a:bool) -> (y:i8) { y:i8 = const[x]; }`, `ir: line 1: expected integer, found "x"`},
		{`def broken(`, `ir: line 1: expected identifier, found end of input`},
		{`def f() -> () {}`, `ir: function f has no outputs`},
		{`def f() -> (y:i8) {}`, `ir: function f: output "y" is never defined`},
		{"def \x00 bogus", `ir: line 1: expected identifier, found "\x00"`},
		{`def f(a:i8) -> (y:i8) { y:i8 = sll[99](a); }`,
			`ir: function f: instruction 0 (y): sll shift amount 99 out of range for i8`},
		{"def f(a:bool) -> (y:bool) { y:bool = id(a); }\ndef g(a:bool) -> (y:bool) { y:bool = id(a); }",
			`ir: expected exactly one function, found 2`},
		// Line numbers: the line of the offending token, or for an unknown
		// operation the line of the token after it.
		{"// c\ndef f(a:bool)\n  -> (y:bool) {\n  y:bool = id(a);\n  z:bool = id(a)\n}\n", `ir: line 6: expected ";", found "}"`},
		{"def f(a:bool) -> (y:bool) {\n  y:bool = id(a);\n}\n\ndef g(a:bool) -> (y:bool) {\n  y:bool = nope(a);\n}\n",
			`ir: line 6: ir: unknown operation "nope"`},
		{`def f(a:i8<4>) -> (y:i8<0>) { y:i8<0> = id(a); }`, `ir: ir: vector lane count 0 out of range`},
		{`def f(a:i8<4) -> (y:i8) { y:i8 = slice[0](a); }`, `ir: line 1: expected ">", found ")"`},
		{"def f(a:i8) -> (y:i8) {\n  y:i8 = add(a, a) @;\n}", `ir: line 2: ir: unknown resource ";"`},
		{"def f(a:i8) -> (y:i8) {\n  y:i8 = add(a a) @??;\n}", `ir: line 2: expected ",", found "a"`},
		{"def f(a:i8) -> (y:i8) {\n  y:i8 = sll[1 2](a);\n}", `ir: line 2: expected ",", found integer 2`},
		// An out-of-range integer is a lexical error. It wins over whatever
		// the parser or the checker makes of the same function ...
		{"def f(a:i8) -> (y:i8) {\n  y:i8 = sll[" + big + "](a);\n}", "ir: line 2: " + bigErr},
		{"def f(a:i8) -> (y:i8) {\n  y:i8 = sll[" + big + "](b);\n}", "ir: line 2: " + bigErr},
		{"def f(a:i8) -> (y:i8) {\n  y:i8 = add(a, a) " + big + " @??;\n}", "ir: line 2: " + bigErr},
		// ... including when it is the token right after the function ...
		{"def f(a:i8) -> (y:i8) {\n  y:i8 = add(a, b) @??;\n} " + big, "ir: line 3: " + bigErr},
		// ... but an error that comes earlier in the text than the integer is
		// now reported first: the parser no longer scans to the end of input
		// before it starts. (The token-slice parser reported line 4's integer
		// for both of these.)
		{"def f(a:i8) -> (y:i8) {\n  y:i8 = add(a, a) @??\n}\ndef g(a:i8) -> (y:i8) { y:i8 = sll[" + big + "](a); }",
			`ir: line 3: expected ";", found "}"`},
		{"def f(a:i8) -> (y:i8) {\n  y:i8 = add(a, b) @??;\n}\ndef g(a:i8) -> (y:i8) { y:i8 = sll[" + big + "](a); }",
			`ir: function f: instruction 0 (y): argument "b" is undefined`},
	}
	for _, tt := range cases {
		_, err := Parse(tt.src)
		if err == nil || err.Error() != tt.want {
			t.Errorf("Parse(%q)\n got  %v\n want %s", tt.src, err, tt.want)
		}
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		fig6,
		`def m(c:bool, a:i8, b:i8) -> (y:i8) { y:i8 = mux(c, a, b) @lut; }`,
		`def v(a:i8<4>, b:i8<4>, en:bool) -> (y:i8<4>) {
            t0:i8<4> = add(a, b) @dsp;
            y:i8<4> = reg[0, 0, 0, 0](t0, en) @dsp;
        }`,
		`def w(a:i8) -> (y:i4) {
            t0:i4 = slice[7, 4](a);
            t1:i4 = slice[3, 0](a);
            y:i4 = and(t0, t1) @??;
        }`,
	}
	for _, src := range srcs {
		f1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		printed := f1.String()
		f2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, printed)
		}
		if f1.String() != f2.String() {
			t.Errorf("round trip mismatch:\n%s\nvs\n%s", f1, f2)
		}
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Dest: "t2", Type: Int(8), Op: OpAdd, Args: []string{"t0", "t1"}, Res: ResAny}
	if got := in.String(); got != "t2:i8 = add(t0, t1) @??;" {
		t.Errorf("String = %q", got)
	}
	w := Instr{Dest: "t1", Type: Int(8), Op: OpSll, Attrs: []int64{1}, Args: []string{"t0"}}
	if got := w.String(); got != "t1:i8 = sll[1](t0);" {
		t.Errorf("String = %q", got)
	}
	c := Instr{Dest: "t0", Type: Int(8), Op: OpConst, Attrs: []int64{5}}
	if got := c.String(); got != "t0:i8 = const[5];" {
		t.Errorf("String = %q", got)
	}
}

func TestFuncStringHeader(t *testing.T) {
	f, err := Parse(fig6)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(f.String(), "def fig6(t0_unused:bool) -> (t2:i8) {") {
		t.Errorf("header = %q", strings.SplitN(f.String(), "\n", 2)[0])
	}
}

func TestCloneIsDeep(t *testing.T) {
	f, err := Parse(fig6)
	if err != nil {
		t.Fatal(err)
	}
	g := f.Clone()
	g.Body[2].Args[0] = "zzz"
	g.Body[0].Attrs[0] = 99
	if f.Body[2].Args[0] != "t0" || f.Body[0].Attrs[0] != 5 {
		t.Error("Clone shares memory with original")
	}
}

func TestLexerTwoRuneTokens(t *testing.T) {
	toks, err := lexAll("-> ?? - > ?")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		texts = append(texts, tok.Text)
	}
	want := []string{"->", "??", "-", ">", "?"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexerNegativeNumberVsArrow(t *testing.T) {
	toks, err := lexAll("[-5]")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokInt || toks[1].Int != -5 {
		t.Errorf("token = %+v", toks[1])
	}
}

func TestTypeOf(t *testing.T) {
	f, err := Parse(fig6)
	if err != nil {
		t.Fatal(err)
	}
	if typ, ok := f.TypeOf("t1"); !ok || typ != Int(8) {
		t.Errorf("TypeOf(t1) = %v, %v", typ, ok)
	}
	if typ, ok := f.TypeOf("t0_unused"); !ok || typ != Bool() {
		t.Errorf("TypeOf(input) = %v, %v", typ, ok)
	}
	if _, ok := f.TypeOf("nope"); ok {
		t.Error("TypeOf(nope) found")
	}
}
