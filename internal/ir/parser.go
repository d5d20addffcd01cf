package ir

import (
	"fmt"
	"strings"
)

// Parser parses straight off a Lexer with one token of lookahead. It is
// shared machinery for the IR parser here and reused (via the exported
// cursor methods) by the assembly and target-description parsers, which
// share the token grammar.
type Parser struct {
	lex Lexer
	tok Token // the current token

	// Argument and attribute lists are carved from chunks shared by the
	// whole parse rather than allocated one by one; see push.
	args  []string
	attrs []int64
}

// NewParser returns a parser over source text.
func NewParser(src string) *Parser {
	p := &Parser{lex: Lexer{src: src, line: 1}}
	p.next()
	return p
}

// Settle returns the error to report once a top-level item has been parsed
// with outcome err: the first lexical error among the tokens scanned so far
// if there is one — what the parser made of a bad token is not worth
// reporting — else err behind the package prefix, else nil.
func (p *Parser) Settle(pkg string, err error) error {
	if p.lex.err != nil {
		return p.lex.err
	}
	if err != nil {
		return fmt.Errorf("%s: %w", pkg, err)
	}
	return nil
}

// Peek returns the current token without consuming it.
func (p *Parser) Peek() Token { return p.tok }

// Take consumes and returns the current token.
func (p *Parser) Take() Token {
	t := p.tok
	p.next()
	return t
}

func (p *Parser) next() { p.lex.scan(&p.tok) }

// AtEOF reports whether the input is exhausted.
func (p *Parser) AtEOF() bool { return p.tok.Kind == TokEOF }

// AtPunct reports whether the current token is the punctuation text.
func (p *Parser) AtPunct(text string) bool {
	return p.tok.Kind == TokPunct && p.tok.Text == text
}

// AtIdent reports whether the current token is the given identifier.
func (p *Parser) AtIdent(text string) bool {
	return p.tok.Kind == TokIdent && p.tok.Text == text
}

// EatPunct consumes the punctuation token if present.
func (p *Parser) EatPunct(text string) bool {
	if p.AtPunct(text) {
		p.next()
		return true
	}
	return false
}

// ExpectPunct consumes the punctuation token or fails.
func (p *Parser) ExpectPunct(text string) error {
	if p.EatPunct(text) {
		return nil
	}
	return fmt.Errorf("line %d: expected %q, found %s", p.tok.Line, text, p.tok)
}

// ExpectIdent consumes an identifier token and returns its text.
func (p *Parser) ExpectIdent() (string, error) {
	if p.tok.Kind != TokIdent {
		return "", fmt.Errorf("line %d: expected identifier, found %s", p.tok.Line, p.tok)
	}
	text := p.tok.Text
	p.next()
	return text, nil
}

// ExpectKeyword consumes the given identifier or fails.
func (p *Parser) ExpectKeyword(kw string) error {
	if p.AtIdent(kw) {
		p.next()
		return nil
	}
	return fmt.Errorf("line %d: expected %q, found %s", p.tok.Line, kw, p.tok)
}

// ExpectInt consumes an integer token and returns its value.
func (p *Parser) ExpectInt() (int64, error) {
	if p.tok.Kind != TokInt {
		return 0, fmt.Errorf("line %d: expected integer, found %s", p.tok.Line, p.tok)
	}
	v := p.tok.Int
	p.next()
	return v, nil
}

// push appends v to the list under construction at slab[start:]. Lists are
// carved from chunks sized for the whole input, so a parse allocates a
// handful of chunks, not a slice per instruction. A full chunk stays with
// the lists already carved from it; the unfinished one moves to a new chunk.
func push[T any](slab []T, start int, v T, chunk int) ([]T, int) {
	if len(slab) == cap(slab) {
		fresh := make([]T, len(slab)-start, max(chunk, 2*(len(slab)-start)+2))
		copy(fresh, slab[start:])
		slab, start = fresh, 0
	}
	return append(slab, v), start
}

// carved returns the finished list slab[start:], nil when empty, with its
// capacity clamped so that an append by a later pass reallocates instead of
// writing over the next list in the chunk.
func carved[T any](slab []T, start int) []T {
	if start == len(slab) {
		return nil
	}
	return slab[start:len(slab):len(slab)]
}

// countUpTo counts sep in the unscanned text before the next occurrence of
// end: a cheap size estimate for the list or body the parser is entering,
// bounded by the text's length so that garbage cannot inflate it.
func (p *Parser) countUpTo(sep string, end byte) int {
	rest := p.lex.src[p.lex.pos:]
	if i := strings.IndexByte(rest, end); i >= 0 {
		rest = rest[:i]
	}
	return min(strings.Count(rest, sep), len(rest)/8) + 1
}

// ParseTypeTok parses a type: "bool", "i8", or "i8<4>". The lexer splits
// "i8<4>" into ident, '<', int, '>', so the parser reassembles it.
func (p *Parser) ParseTypeTok() (Type, error) {
	name, err := p.ExpectIdent()
	if err != nil {
		return Type{}, err
	}
	base, err := ParseType(name)
	if err != nil {
		return Type{}, err
	}
	if base.IsInt() && p.EatPunct("<") {
		lanes, err := p.ExpectInt()
		if err != nil {
			return Type{}, err
		}
		if err := p.ExpectPunct(">"); err != nil {
			return Type{}, err
		}
		return NewVector(base.Width(), int(lanes))
	}
	return base, nil
}

// ParsePorts parses "(" [port ("," port)*] ")".
func (p *Parser) ParsePorts() ([]Port, error) {
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	ports := make([]Port, 0, p.countUpTo(":", ')'))
	for !p.AtPunct(")") {
		if len(ports) > 0 {
			if err := p.ExpectPunct(","); err != nil {
				return nil, err
			}
		}
		name, err := p.ExpectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectPunct(":"); err != nil {
			return nil, err
		}
		typ, err := p.ParseTypeTok()
		if err != nil {
			return nil, err
		}
		ports = append(ports, Port{Name: name, Type: typ})
	}
	return ports, p.ExpectPunct(")")
}

// ParseAttrs parses an optional attribute list "[" int ("," int)* "]".
func (p *Parser) ParseAttrs() ([]int64, error) {
	if !p.EatPunct("[") {
		return nil, nil
	}
	start := len(p.attrs)
	for !p.AtPunct("]") {
		if len(p.attrs) > start {
			if err := p.ExpectPunct(","); err != nil {
				return nil, err
			}
		}
		v, err := p.ExpectInt()
		if err != nil {
			return nil, err
		}
		p.attrs, start = push(p.attrs, start, v, len(p.lex.src)/64+16)
	}
	return carved(p.attrs, start), p.ExpectPunct("]")
}

// ParseArgs parses an optional argument list "(" name ("," name)* ")".
func (p *Parser) ParseArgs() ([]string, error) {
	if !p.EatPunct("(") {
		return nil, nil
	}
	start := len(p.args)
	for !p.AtPunct(")") {
		if len(p.args) > start {
			if err := p.ExpectPunct(","); err != nil {
				return nil, err
			}
		}
		name, err := p.ExpectIdent()
		if err != nil {
			return nil, err
		}
		p.args, start = push(p.args, start, name, len(p.lex.src)/16+16)
	}
	return carved(p.args, start), p.ExpectPunct(")")
}

// parseInstr parses one IR instruction terminated by ";".
func (p *Parser) parseInstr() (Instr, error) {
	var in Instr
	dest, err := p.ExpectIdent()
	if err != nil {
		return in, err
	}
	if err := p.ExpectPunct(":"); err != nil {
		return in, err
	}
	typ, err := p.ParseTypeTok()
	if err != nil {
		return in, err
	}
	if err := p.ExpectPunct("="); err != nil {
		return in, err
	}
	opName, err := p.ExpectIdent()
	if err != nil {
		return in, err
	}
	op, err := ParseOp(opName)
	if err != nil {
		return in, fmt.Errorf("line %d: %v", p.tok.Line, err)
	}
	attrs, err := p.ParseAttrs()
	if err != nil {
		return in, err
	}
	args, err := p.ParseArgs()
	if err != nil {
		return in, err
	}
	res := ResAny
	if p.EatPunct("@") {
		t := p.Take()
		r, err := ParseResource(t.Text)
		if err != nil {
			return in, fmt.Errorf("line %d: %v", t.Line, err)
		}
		res = r
	}
	if err := p.ExpectPunct(";"); err != nil {
		return in, err
	}
	return Instr{Dest: dest, Type: typ, Op: op, Attrs: attrs, Args: args, Res: res}, nil
}

// parseFunc parses one function definition.
func (p *Parser) parseFunc() (*Func, error) {
	if err := p.ExpectKeyword("def"); err != nil {
		return nil, err
	}
	name, err := p.ExpectIdent()
	if err != nil {
		return nil, err
	}
	inputs, err := p.ParsePorts()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct("->"); err != nil {
		return nil, err
	}
	outputs, err := p.ParsePorts()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct("{"); err != nil {
		return nil, err
	}
	f := &Func{Name: name, Inputs: inputs, Outputs: outputs, Body: make([]Instr, 0, p.countUpTo(";", '}'))}
	for !p.AtPunct("}") {
		in, err := p.parseInstr()
		if err != nil {
			return nil, err
		}
		f.Body = append(f.Body, in)
	}
	return f, p.ExpectPunct("}")
}

// Parse parses a single function from source text and checks it.
func Parse(src string) (*Func, error) {
	fns, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(fns) != 1 {
		return nil, fmt.Errorf("ir: expected exactly one function, found %d", len(fns))
	}
	return fns[0], nil
}

// ParseAll parses every function in the source text and checks each.
func ParseAll(src string) ([]*Func, error) {
	p := NewParser(src)
	var fns []*Func
	for !p.AtEOF() {
		f, err := p.parseFunc()
		if err := p.Settle("ir", err); err != nil {
			return nil, err
		}
		if err := Check(f); err != nil {
			return nil, err
		}
		fns = append(fns, f)
	}
	if len(fns) == 0 {
		return nil, fmt.Errorf("ir: no functions in input")
	}
	return fns, nil
}
