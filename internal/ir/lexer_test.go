package ir

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"unicode"
	"unicode/utf8"
)

// slowTokens is the lexer as it was before the ASCII fast path: every rune
// through utf8.DecodeRuneInString and the unicode tables, every punct text
// through string(rune). The fast path must be indistinguishable from it.
func slowTokens(src string) ([]Token, error) {
	l := NewLexer(src)
	decode := func() (rune, int) {
		if l.pos >= len(l.src) {
			return 0, 0
		}
		return utf8.DecodeRuneInString(l.src[l.pos:])
	}
	next := func() Token {
		l.skipSpaceAndComments()
		line, col := l.line, l.col
		if l.pos >= len(l.src) {
			return Token{Kind: TokEOF, Line: line, Col: col}
		}
		r, size := decode()
		switch {
		case r == '_' || unicode.IsLetter(r):
			start := l.pos
			for l.pos < len(l.src) {
				r2, s2 := decode()
				if !(r2 == '_' || unicode.IsLetter(r2) || unicode.IsDigit(r2)) {
					break
				}
				l.advance(s2)
			}
			return Token{Kind: TokIdent, Text: l.src[start:l.pos], Line: line, Col: col}
		case unicode.IsDigit(r) || (r == '-' && l.hasDigitAt(l.pos+size)):
			start := l.pos
			l.advance(size)
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.advance(1)
			}
			text := l.src[start:l.pos]
			v, err := strconv.ParseInt(text, 10, 64)
			if err != nil && l.err == nil {
				l.err = fmt.Errorf("ir: line %d: bad integer %q: %v", line, text, err)
			}
			return Token{Kind: TokInt, Text: text, Int: v, Line: line, Col: col}
		case r == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
			l.advance(2)
			return Token{Kind: TokPunct, Text: "->", Line: line, Col: col}
		case r == '?' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '?':
			l.advance(2)
			return Token{Kind: TokPunct, Text: "??", Line: line, Col: col}
		default:
			l.advance(size)
			return Token{Kind: TokPunct, Text: string(r), Line: line, Col: col}
		}
	}
	var toks []Token
	for {
		t := next()
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, l.Err()
		}
	}
}

// TestLexerFastPathEqualsSlowPath: same tokens, texts, values, lines,
// columns and errors on the bundled programs and on text chosen to sit on
// the ASCII / non-ASCII boundary.
func TestLexerFastPathEqualsSlowPath(t *testing.T) {
	corpus := []string{
		"",
		"def f(a:i8<4>, en:bool) -> (y:i8<4>) { y:i8<4> = reg[-1, 2, 3, 4](a, en) @dsp; }",
		"y:i8 = muladd(a, b, c) @dsp(x, y-1); z:i8 = add(a, b) @lut(??, y+1); // tail",
		"- -> -1 --2 ->> ? ?? ??? a-1 a->b 9223372036854775808 -9223372036854775809 007",
		"_ _a a_ A9 Zz_0 @[`{ ~^ \x00\x7f",
		// Non-ASCII identifiers, alone and mixed with ASCII.
		"défaut:i8 = add(α, β1) @??; 变量 = Ωmega_2(x٣, é);",
		"aé éa a1é _é é_ ǅ ª",
		// Non-ASCII digits, punctuation, spaces and comments.
		"٣ x = ٣٤; a → b « c » \u00a0 d \u2028 e // commentaire é → fin\nf",
		// Invalid UTF-8: a lone continuation byte, a truncated sequence.
		"a\x80b \xc3 \xe2\x82 c\xffd",
		"line1\n  line2 é\n\tline3 // c\n\nline5",
	}
	paths, err := filepath.Glob("../../examples/programs/*.ret")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled programs: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, string(src))
	}
	for _, src := range corpus {
		got, gotErr := Tokens(src)
		want, wantErr := slowTokens(src)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tokens differ on %q:\n got  %v\n want %v", src, got, want)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("error differs on %q: got %v, want %v", src, gotErr, wantErr)
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
