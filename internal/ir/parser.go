package ir

import (
	"fmt"
	"strings"
)

// Parser parses straight off a Lexer with one token of lookahead. The
// three languages share one statement form, dest:type = op[attrs](args),
// and one definition signature, (ports) -> (ports) { body }; this package
// parses both once (ParseHead, ParseCall, ParseSignature, ParseHeader),
// and the assembly and target-description parsers supply only what
// follows a statement (a location; nothing) and what precedes a signature
// (a costed name).
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

// ParseEach parses p's source item by item until it ends, the top-level
// loop of every language's parser: item reads one item off p, and
// check, when not nil, validates each as soon as it has parsed, so that a
// later item's parse error cannot hide an earlier one's check error. lang
// prefixes the parse errors (see Settle), and what names the items in the
// error for an input that holds none. item closes over p rather than
// taking it, so that a parser the caller made stays on its stack.
func ParseEach[T any](p *Parser, lang, what string, item func() (T, error), check func(T) error) ([]T, error) {
	var items []T
	for !p.AtEOF() {
		it, err := item()
		if err := p.Settle(lang, err); err != nil {
			return nil, err
		}
		if check != nil {
			if err := check(it); err != nil {
				return nil, err
			}
		}
		items = append(items, it)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("%s: no %s in input", lang, what)
	}
	return items, nil
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

// expectKeyword consumes the given identifier or fails.
func (p *Parser) expectKeyword(kw string) error {
	if p.tok.Kind == TokIdent && p.tok.Text == kw {
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

// parseType parses a type: "bool", "i8", or "i8<4>". The lexer splits
// "i8<4>" into ident, '<', int, '>', so the parser reassembles it.
func (p *Parser) parseType() (Type, error) {
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

// parsePorts parses "(" [port ("," port)*] ")".
func (p *Parser) parsePorts() ([]Port, error) {
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
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		ports = append(ports, Port{Name: name, Type: typ})
	}
	return ports, p.ExpectPunct(")")
}

// parseAttrs parses an optional attribute list "[" int ("," int)* "]".
func (p *Parser) parseAttrs() ([]int64, error) {
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

// parseArgs parses an optional argument list "(" name ("," name)* ")".
func (p *Parser) parseArgs() ([]string, error) {
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

// ParseHead parses the head of a statement, "dest:type = op", and returns
// the operation's name for the language to resolve.
func (p *Parser) ParseHead() (dest string, typ Type, op string, err error) {
	if dest, err = p.ExpectIdent(); err != nil {
		return
	}
	if err = p.ExpectPunct(":"); err != nil {
		return
	}
	if typ, err = p.parseType(); err != nil {
		return
	}
	if err = p.ExpectPunct("="); err != nil {
		return
	}
	op, err = p.ExpectIdent()
	return
}

// ParseCall parses the call part of a statement, "[attrs](args)", either
// list optional.
func (p *Parser) ParseCall() (attrs []int64, args []string, err error) {
	if attrs, err = p.parseAttrs(); err == nil {
		args, err = p.parseArgs()
	}
	return
}

// ParseSignature parses "(ports) -> (ports)": a function's or a target
// definition's inputs and outputs.
func (p *Parser) ParseSignature() (inputs, outputs []Port, err error) {
	if inputs, err = p.parsePorts(); err != nil {
		return
	}
	if err = p.ExpectPunct("->"); err != nil {
		return
	}
	outputs, err = p.parsePorts()
	return
}

// ParseHeader parses the header of an IR or assembly function, "def
// name(ports) -> (ports)".
func (p *Parser) ParseHeader() (name string, inputs, outputs []Port, err error) {
	if err = p.expectKeyword("def"); err != nil {
		return
	}
	if name, err = p.ExpectIdent(); err != nil {
		return
	}
	inputs, outputs, err = p.ParseSignature()
	return
}

// OpenBody consumes the "{" that opens a body and estimates how many
// statements the body holds, for sizing it. The body ends at the "}" that
// a statement cannot start with: `for !p.EatPunct("}")` reads it.
func (p *Parser) OpenBody() (int, error) {
	err := p.ExpectPunct("{")
	return p.countUpTo(";", '}'), err
}

// parseInstr parses one IR instruction: a statement, then "@res" when the
// resource is given, and ";".
func (p *Parser) parseInstr() (Instr, error) {
	dest, typ, name, err := p.ParseHead()
	if err != nil {
		return Instr{}, err
	}
	op, err := ParseOp(name)
	if err != nil {
		return Instr{}, fmt.Errorf("line %d: %v", p.tok.Line, err)
	}
	in := Instr{Dest: dest, Type: typ, Op: op}
	if in.Attrs, in.Args, err = p.ParseCall(); err != nil {
		return in, err
	}
	if p.EatPunct("@") {
		t := p.Take()
		if in.Res, err = ParseResource(t.Text); err != nil {
			return in, fmt.Errorf("line %d: %v", t.Line, err)
		}
	}
	return in, p.ExpectPunct(";")
}

// parseFunc parses one function definition.
func (p *Parser) parseFunc() (*Func, error) {
	name, inputs, outputs, err := p.ParseHeader()
	if err != nil {
		return nil, err
	}
	n, err := p.OpenBody()
	if err != nil {
		return nil, err
	}
	f := &Func{Name: name, Inputs: inputs, Outputs: outputs, Body: make([]Instr, 0, n)}
	for !p.EatPunct("}") {
		in, err := p.parseInstr()
		if err != nil {
			return nil, err
		}
		f.Body = append(f.Body, in)
	}
	return f, nil
}

// Parse parses a single function from source text and checks it.
func Parse(src string) (*Func, error) {
	f, _, err := ParseSymbols(src)
	return f, err
}

// ParseSymbols is Parse handing back the symbol table its check built,
// for a caller that passes the function on to a stage that would
// otherwise resolve its names again (pipeline.CompileChecked).
func ParseSymbols(src string) (*Func, Symbols, error) {
	var syms Symbols
	fns, err := parseAll(src, &syms)
	if err != nil {
		return nil, Symbols{}, err
	}
	if len(fns) != 1 {
		return nil, Symbols{}, fmt.Errorf("ir: expected exactly one function, found %d", len(fns))
	}
	return fns[0], syms, nil
}

// parseAll parses every function in the source text and checks each,
// keeping the last one's symbol table in *syms.
func parseAll(src string, syms *Symbols) ([]*Func, error) {
	p := NewParser(src)
	return ParseEach(p, "ir", "functions", p.parseFunc, func(f *Func) (err error) {
		*syms, err = check(f)
		return err
	})
}
