package ir

import (
	"fmt"
	"strconv"
	"strings"
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
	line int // 1-based line of pos
	bol  int // offset of that line's first byte; no token spans a newline
	err  error
}

// asciiIdentCont marks the ASCII bytes that continue an identifier. Bytes
// from utf8.RuneSelf up are unmarked: they take the general rune path.
var asciiIdentCont = func() (t [256]bool) {
	for c := 0; c < utf8.RuneSelf; c++ {
		t[c] = isIdentCont(rune(c))
	}
	return t
}()

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

// scan scans the next token into one the caller owns: the parser scans
// straight into its lookahead slot.
func (l *Lexer) scan(tok *Token) {
	src, pos := l.src, l.pos
skip:
	for pos < len(src) {
		switch c := src[pos]; {
		case c == '\n':
			pos++
			l.line, l.bol = l.line+1, pos
		case c == ' ' || c == '\t' || c == '\r':
			pos++
		case c == '/' && pos+1 < len(src) && src[pos+1] == '/':
			if eol := strings.IndexByte(src[pos:], '\n'); eol >= 0 {
				pos += eol
			} else {
				pos = len(src)
			}
		default:
			break skip
		}
	}
	start := pos
	*tok = Token{Line: l.line, Col: start - l.bol + 1} // columns count bytes
	if pos >= len(src) {
		l.pos = pos
		return
	}
	r, size := rune(src[pos]), 1
	if r >= utf8.RuneSelf {
		r, size = utf8.DecodeRuneInString(src[pos:])
	}
	pos += size
	switch {
	case isIdentStart(r):
		tok.Kind = TokIdent
		for pos < len(src) {
			c := src[pos]
			if asciiIdentCont[c] {
				pos++
				continue
			}
			if c < utf8.RuneSelf {
				break
			}
			r2, s2 := utf8.DecodeRuneInString(src[pos:])
			if !isIdentCont(r2) {
				break
			}
			pos += s2
		}
	case unicode.IsDigit(r) || (r == '-' && pos < len(src) && isDigit(src[pos])):
		tok.Kind = TokInt
		for pos < len(src) && isDigit(src[pos]) {
			pos++
		}
		v, err := strconv.ParseInt(src[start:pos], 10, 64)
		if err != nil && l.err == nil {
			l.err = fmt.Errorf("ir: line %d: bad integer %q: %v", tok.Line, src[start:pos], err)
		}
		tok.Int = v
	default:
		tok.Kind = TokPunct
		if pos < len(src) && (r == '-' && src[pos] == '>' || r == '?' && src[pos] == '?') {
			pos++
		} else if r == utf8.RuneError && size == 1 {
			// An invalid byte reads as U+FFFD, not as the byte itself.
			tok.Text = string(r)
		}
	}
	if tok.Text == "" {
		tok.Text = src[start:pos]
	}
	l.pos = pos
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
