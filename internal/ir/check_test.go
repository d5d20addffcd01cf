package ir

import (
	"strings"
	"testing"
)

func mustParseNoCheck(t *testing.T, src string) *Func {
	t.Helper()
	p := NewParser(src)
	f, err := p.parseFunc()
	if err := p.Settle("ir", err); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCheckRejects(t *testing.T) {
	bad := []struct {
		name, src, want string
	}{
		{
			"undefined arg",
			`def f(a:i8) -> (y:i8) { y:i8 = add(a, b) @??; }`,
			"undefined",
		},
		{
			"duplicate dest",
			`def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??; y:i8 = add(a, b) @??; }`,
			"more than once",
		},
		{
			"dest shadows input",
			`def f(a:i8, b:i8) -> (a:i8) { a:i8 = add(a, b) @??; }`,
			"more than once",
		},
		{
			"undefined output",
			`def f(a:i8, b:i8) -> (z:i8) { y:i8 = add(a, b) @??; }`,
			"never defined",
		},
		{
			"undefined output of an empty function",
			`def f() -> (y:i8) {}`,
			`output "y" is never defined`,
		},
		{
			"output type mismatch",
			`def f(a:i8, b:i8) -> (y:i16) { y:i8 = add(a, b) @??; }`,
			"declared i16",
		},
		{
			"duplicate output",
			`def f(x:i8, en:bool) -> (y:i8, y:i8) { y:i8 = reg[0](x, en) @??; }`,
			`duplicate output "y"`,
		},
		{
			"output names an input",
			`def f(a:i8, en:bool) -> (a:i8) {}`,
			`output "a" names an input; use id`,
		},
		{
			"add type mismatch",
			`def f(a:i8, b:i16) -> (y:i8) { y:i8 = add(a, b) @??; }`,
			"want i8",
		},
		{
			"add bool result",
			`def f(a:bool, b:bool) -> (y:bool) { y:bool = add(a, b) @??; }`,
			"cannot be bool",
		},
		{
			"compare vector",
			`def f(a:i8<2>, b:i8<2>) -> (y:bool) { y:bool = eq(a, b) @??; }`,
			"vectors",
		},
		{
			"compare result not bool",
			`def f(a:i8, b:i8) -> (y:i8) { y:i8 = eq(a, b) @??; }`,
			"must be bool",
		},
		{
			"mux condition",
			`def f(c:i8, a:i8, b:i8) -> (y:i8) { y:i8 = mux(c, a, b) @??; }`,
			"condition must be bool",
		},
		{
			"reg enable",
			`def f(a:i8, en:i8) -> (y:i8) { y:i8 = reg[0](a, en) @??; }`,
			"enable must be bool",
		},
		{
			"reg bad init count",
			`def f(a:i8<4>, en:bool) -> (y:i8<4>) { y:i8<4> = reg[0, 0](a, en) @??; }`,
			"attributes",
		},
		{
			"scalar reg bad init count",
			`def f(a:i8, en:bool) -> (y:i8) { y:i8 = reg[0, 0](a, en) @??; }`,
			"reg takes 1 initial value attribute, got 2",
		},
		{
			"shift too far",
			`def f(a:i8) -> (y:i8) { y:i8 = sll[8](a); }`,
			"out of range",
		},
		{
			"shift on vector",
			`def f(a:i8<2>) -> (y:i8<2>) { y:i8<2> = sll[1](a); }`,
			"scalar integers",
		},
		{
			"slice bad range",
			`def f(a:i8) -> (y:i4) { y:i4 = slice[9, 6](a); }`,
			"invalid",
		},
		{
			"slice wrong result width",
			`def f(a:i8) -> (y:i4) { y:i4 = slice[7, 0](a); }`,
			"declared",
		},
		{
			"slice lane out of range",
			`def f(a:i8<2>) -> (y:i8) { y:i8 = slice[2](a); }`,
			"out of range",
		},
		{
			"cat width mismatch",
			`def f(a:i8, b:i8) -> (y:i8) { y:i8 = cat(a, b); }`,
			"16 bits",
		},
		{
			"cat lane width mismatch",
			`def f(a:i8<2>, b:i16) -> (y:i8<3>) { y:i8<3> = cat(a, b); }`,
			"lane widths",
		},
		{
			"cat vector into scalar result",
			`def f(a:i8<2>, b:i8) -> (y:i24) { y:i24 = cat(a, b); }`,
			"vector result",
		},
		{
			"cat bool into vector",
			`def f(a:bool, b:bool) -> (y:i1<2>) { y:i1<2> = cat(a, b); }`,
			"bool",
		},
		{
			"wrong arity",
			`def f(a:i8) -> (y:i8) { y:i8 = add(a) @??; }`,
			"takes 2 arguments",
		},
		{
			"mux arity",
			`def f(c:bool, a:i8) -> (y:i8) { y:i8 = mux(c, a) @??; }`,
			"takes 3 arguments",
		},
	}
	for _, tt := range bad {
		f := mustParseNoCheck(t, tt.src)
		err := Check(f)
		if err == nil {
			t.Errorf("%s: Check succeeded", tt.name)
			continue
		}
		if !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: error %q does not mention %q", tt.name, err, tt.want)
		}
	}
}

func TestCheckAccepts(t *testing.T) {
	good := []string{
		`def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??; }`,
		`def f(a:i8<4>, b:i8<4>) -> (y:i8<4>) { y:i8<4> = mul(a, b) @dsp; }`,
		`def f(a:i8) -> (y:i8) { y:i8 = not(a) @lut; }`,
		`def f(a:i8, b:i8) -> (y:bool) { y:bool = lt(a, b) @??; }`,
		`def f(a:i8, b:i8) -> (y:i16) { y:i16 = cat(a, b); }`,
		`def f(a:bool, b:bool) -> (y:i2) { y:i2 = cat(a, b); }`,
		`def f(a:i8<2>, b:i8<2>) -> (y:i8<4>) { y:i8<4> = cat(a, b); }`,
		`def f(a:i8, b:i8) -> (y:i8<2>) { y:i8<2> = cat(a, b); }`,
		`def f(a:i8<2>, b:i8) -> (y:i8<3>) { y:i8<3> = cat(a, b); }`,
		`def f(a:i8<4>) -> (y:i8) { y:i8 = slice[3](a); }`,
		`def f(a:i8) -> (y:bool) { y:bool = slice[0, 0](a); }`,
		`def f(a:i8<4>, en:bool) -> (y:i8<4>) { y:i8<4> = reg[1, 2, 3, 4](a, en) @dsp; }`,
		`def f(x:bool) -> (y:i8<4>) { y:i8<4> = const[7]; }`,
		`def f(a:bool, b:bool) -> (y:bool) { y:bool = xor(a, b) @lut; }`,
	}
	for _, src := range good {
		if _, err := Parse(src); err != nil {
			t.Errorf("rejected valid program: %v\n%s", err, src)
		}
	}
}

// TestCheckAllowsForwardReference ensures textual use-before-def is legal:
// dependencies are by name, and only well-formedness constrains cycles.
func TestCheckAllowsForwardReference(t *testing.T) {
	src := `
def f(en:bool) -> (t3:i8) {
    t1:i8 = const[4];
    t2:i8 = add(t3, t1) @??;
    t3:i8 = reg[0](t2, en) @??;
}
`
	if _, err := Parse(src); err != nil {
		t.Fatalf("forward reference rejected: %v", err)
	}
}
