package ir

import (
	"testing"
	"unicode"
)

// lexAll scans the whole input: the token stream ending with an EOF token,
// and the first lexical error.
func lexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, l.Err()
		}
	}
}

// TestIdentClassesEqualUnicodeTables checks the two rune predicates against
// their definitions over the whole Basic Multilingual Plane.
func TestIdentClassesEqualUnicodeTables(t *testing.T) {
	for r := rune(0); r <= 0xFFFF; r++ {
		if got, want := isIdentStart(r), r == '_' || unicode.IsLetter(r); got != want {
			t.Errorf("isIdentStart(%U) = %v, want %v", r, got, want)
		}
		if got, want := isIdentCont(r), r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r); got != want {
			t.Errorf("isIdentCont(%U) = %v, want %v", r, got, want)
		}
	}
}
