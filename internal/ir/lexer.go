package ir

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// TokKind identifies a lexical token class. The lexer is shared by the IR,
// assembly, and target-description parsers, which all use the same surface
// syntax family.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokPunct // single punctuation rune, or the two-rune tokens "->" and "??"
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Int  int64 // valid when Kind == TokInt
	Line int
	Col  int
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokInt:
		return fmt.Sprintf("integer %s", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Lexer tokenizes Reticle surface syntax. Comments run from "//" to end of
// line. The two-rune tokens "->" and "??" are single punct tokens; every
// other punctuation rune stands alone.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
	err  error
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Err returns the first error encountered while scanning, if any.
func (l *Lexer) Err() error { return l.err }

func (l *Lexer) peekRune() (rune, int) {
	if l.pos >= len(l.src) {
		return 0, 0
	}
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

func (l *Lexer) advance(size int) {
	for i := 0; i < size; i++ {
		if l.src[l.pos+i] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
	}
	l.pos += size
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	if r < utf8.RuneSelf {
		return r == '_' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z'
	}
	return unicode.IsLetter(r)
}

func isIdentCont(r rune) bool {
	if r < utf8.RuneSelf {
		return isIdentStart(r) || '0' <= r && r <= '9'
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Next scans and returns the next token.
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: line, Col: col}
	}
	r, size := l.peekRune()
	switch {
	case isIdentStart(r):
		start := l.pos
		for l.pos < len(l.src) {
			r2, s2 := l.peekRune()
			if !isIdentCont(r2) {
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
	case r < utf8.RuneSelf:
		// The same text as string(r) below, as a substring: no allocation.
		l.advance(1)
		return Token{Kind: TokPunct, Text: l.src[l.pos-1 : l.pos], Line: line, Col: col}
	default:
		l.advance(size)
		return Token{Kind: TokPunct, Text: string(r), Line: line, Col: col}
	}
}

func (l *Lexer) hasDigitAt(pos int) bool {
	return pos < len(l.src) && l.src[pos] >= '0' && l.src[pos] <= '9'
}
