package ir

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the IR parser: it must return an error
// or a function that re-parses to itself, and never panic.
func FuzzParse(f *testing.F) {
	seeds := []string{
		fig6,
		`def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??; }`,
		`def v(a:i8<4>) -> (y:i8) { y:i8 = slice[2](a); }`,
		`def r(a:i8, en:bool) -> (y:i8) { y:i8 = reg[-3](a, en) @lut; }`,
		`def broken(`,
		`def f() -> () {}`,
		`def f() -> (y:i8) {}`,
		"def f(a:bool) -> (y:bool) { y:bool = id(a); } // comment",
		"def \x00 bogus",
		`def f(a:i8) -> (y:i8) { y:i8 = sll[99](a); }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := Parse(src)
		if err != nil {
			return
		}
		printed := fn.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\n%s", err, printed)
		}
		if back.String() != printed {
			t.Fatalf("print/parse not a fixpoint:\n%s\nvs\n%s", printed, back.String())
		}
	})
}

// FuzzLexer checks the lexer terminates and reports positions sanely.
func FuzzLexer(f *testing.F) {
	f.Add("def f(a:i8) -> (y:i8) { y:i8 = add(a, a) @??; }")
	f.Add("?? -> - > [ ] -12 i8<4>")
	f.Add(strings.Repeat("(", 100))
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lexAll(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Fatal("token stream must end with EOF")
		}
		// Positions never go backwards.
		prev := 0
		for _, tok := range toks {
			if tok.Line < prev {
				t.Fatalf("line went backwards: %d after %d", tok.Line, prev)
			}
			prev = tok.Line
		}
	})
}
