package verilog

import (
	"fmt"
	"strings"
)

// ParseModule parses the Verilog subset this package prints: module
// headers with attributes, wire and reg declarations, continuous
// assignments, primitive instances with parameters and attributes, and
// clocked always blocks whose statements are non-blocking assignments and
// ifs without else. It is the inverse of Module.String: codegen's tests
// audit emitted netlists through it, and package vfront reads the
// behavioral baselines back with it.
func ParseModule(src string) (*Module, error) {
	p := &vparser{lex: newVlex(src)}
	p.advanceTok()
	m, err := p.module()
	if err != nil {
		return nil, err
	}
	if p.lex.err != nil {
		return nil, p.lex.err
	}
	return m, nil
}

type vparser struct {
	lex *vlex
	tok vtok
}

func (p *vparser) advanceTok() { p.tok = p.lex.next() }

func (p *vparser) at(text string) bool {
	return p.tok.kind == tokPunct && p.tok.text == text
}

func (p *vparser) atIdent(text string) bool {
	return p.tok.kind == tokIdent && p.tok.text == text
}

func (p *vparser) eat(text string) bool {
	if p.at(text) {
		p.advanceTok()
		return true
	}
	return false
}

func (p *vparser) expect(text string) error {
	if p.eat(text) {
		return nil
	}
	return fmt.Errorf("verilog: line %d: expected %q, found %s", p.tok.line, text, p.tok)
}

func (p *vparser) expectIdent() (string, error) {
	if p.tok.kind != tokIdent {
		return "", fmt.Errorf("verilog: line %d: expected identifier, found %s", p.tok.line, p.tok)
	}
	name := p.tok.text
	p.advanceTok()
	return name, nil
}

func (p *vparser) expectKeyword(kw string) error {
	if p.atIdent(kw) {
		p.advanceTok()
		return nil
	}
	return fmt.Errorf("verilog: line %d: expected %q, found %s", p.tok.line, kw, p.tok)
}

// attrs parses an optional (* k = "v", ... *) block.
func (p *vparser) attrs() ([]Attr, error) {
	if !p.eat("(*") {
		return nil, nil
	}
	var out []Attr
	for {
		key, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		if p.tok.kind != tokString {
			return nil, fmt.Errorf("verilog: line %d: attribute value must be a string", p.tok.line)
		}
		out = append(out, Attr{Key: key, Value: p.tok.text})
		p.advanceTok()
		if p.eat(",") {
			continue
		}
		break
	}
	return out, p.expect("*)")
}

func (p *vparser) module() (*Module, error) {
	attrs, err := p.attrs()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("module"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m := &Module{Name: name, Attrs: attrs}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for !p.at(")") {
		if len(m.Ports) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		port, err := p.port()
		if err != nil {
			return nil, err
		}
		m.Ports = append(m.Ports, port)
	}
	p.advanceTok() // ')'
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	for !p.atIdent("endmodule") {
		if p.tok.kind == tokEOF {
			return nil, fmt.Errorf("verilog: unexpected end of input inside module %s", name)
		}
		item, err := p.item()
		if err != nil {
			return nil, err
		}
		m.Items = append(m.Items, item)
	}
	p.advanceTok()
	return m, nil
}

func (p *vparser) port() (Port, error) {
	var port Port
	dir, err := p.expectIdent()
	if err != nil {
		return port, err
	}
	switch dir {
	case "input":
		port.Dir = Input
	case "output":
		port.Dir = Output
	default:
		return port, fmt.Errorf("verilog: line %d: bad port direction %q", p.tok.line, dir)
	}
	if p.atIdent("reg") {
		port.Reg = true
		p.advanceTok()
	}
	port.Width, port.Name, err = p.decl()
	return port, err
}

// decl parses the "[n:0] name" a port, wire or reg declaration ends
// with; without the range the width is 1.
func (p *vparser) decl() (width int, name string, err error) {
	width = 1
	if p.eat("[") {
		if p.tok.kind != tokNumber {
			return 0, "", fmt.Errorf("verilog: line %d: expected range bound", p.tok.line)
		}
		width += int(p.tok.num)
		p.advanceTok()
		if err := p.expect(":"); err != nil {
			return 0, "", err
		}
		if p.tok.kind != tokNumber || p.tok.num != 0 {
			return 0, "", fmt.Errorf("verilog: line %d: only [n:0] ranges supported", p.tok.line)
		}
		p.advanceTok()
		if err := p.expect("]"); err != nil {
			return 0, "", err
		}
	}
	name, err = p.expectIdent()
	return width, name, err
}

func (p *vparser) item() (Item, error) {
	attrs, err := p.attrs()
	if err != nil {
		return nil, err
	}
	switch {
	case p.atIdent("wire") || p.atIdent("reg"):
		kind := p.tok.text
		if len(attrs) > 0 {
			return nil, fmt.Errorf("verilog: attributes on %s declarations unsupported", kind)
		}
		p.advanceTok()
		w, name, err := p.decl()
		if err != nil {
			return nil, err
		}
		if kind == "wire" {
			return Wire{Name: name, Width: w}, p.expect(";")
		}
		r := Reg{Name: name, Width: w}
		if p.eat("=") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			lit, ok := e.(Lit)
			if !ok {
				return nil, fmt.Errorf("verilog: reg initializer must be a sized literal")
			}
			r.HasInit = true
			r.Init = int64(lit.Value)
		}
		return r, p.expect(";")
	case p.atIdent("assign"):
		p.advanceTok()
		lhs, rhs, err := p.assignment("=")
		return Assign{LHS: lhs, RHS: rhs}, err
	case p.atIdent("always"):
		if len(attrs) > 0 {
			return nil, fmt.Errorf("verilog: attributes on always blocks unsupported")
		}
		return p.always()
	case p.tok.kind == tokIdent:
		return p.instance(attrs)
	default:
		return nil, fmt.Errorf("verilog: line %d: unexpected %s", p.tok.line, p.tok)
	}
}

func (p *vparser) instance(attrs []Attr) (Item, error) {
	mod, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	inst := Instance{Attrs: attrs, Module: mod}
	if p.eat("#") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		inst.Params, err = p.connections()
		if err != nil {
			return nil, err
		}
	}
	inst.Name, err = p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	inst.Ports, err = p.connections()
	if err != nil {
		return nil, err
	}
	return inst, p.expect(";")
}

// connections parses ".name(expr), ..." up to and including the ")".
func (p *vparser) connections() ([]Connection, error) {
	var out []Connection
	for !p.at(")") {
		if len(out) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		if err := p.expect("."); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		out = append(out, Connection{Name: name, Expr: e})
	}
	p.advanceTok() // ')'
	return out, nil
}

func (p *vparser) always() (Item, error) {
	p.advanceTok() // always
	if err := p.expect("@"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("posedge"); err != nil {
		return nil, err
	}
	clk, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	blk, err := p.beginEnd()
	if err != nil {
		return nil, err
	}
	return AlwaysFF{Clock: clk, Stmts: blk}, nil
}

func (p *vparser) beginEnd() ([]Stmt, error) {
	if err := p.expectKeyword("begin"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.atIdent("end") {
		if p.tok.kind == tokEOF {
			return nil, fmt.Errorf("verilog: unexpected end of input inside begin block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	p.advanceTok()
	return out, nil
}

// stmt parses "if (cond) begin ... end" or "lhs <= rhs;".
func (p *vparser) stmt() (Stmt, error) {
	if !p.atIdent("if") {
		lhs, rhs, err := p.assignment("<=")
		return NonBlocking{LHS: lhs, RHS: rhs}, err
	}
	p.advanceTok()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.beginEnd()
	if err != nil {
		return nil, err
	}
	return If{Cond: cond, Then: then}, nil
}

// assignment parses "lhs op rhs;". The target is an identifier with
// optional index or slice suffixes; restricting targets keeps "<="
// unambiguous between non-blocking assignment and the less-equal
// operator.
func (p *vparser) assignment(op string) (lhs, rhs Expr, err error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, nil, err
	}
	if lhs, err = p.maybeSlice(Ref(name)); err != nil {
		return nil, nil, err
	}
	if err := p.expect(op); err != nil {
		return nil, nil, err
	}
	if rhs, err = p.expr(); err != nil {
		return nil, nil, err
	}
	return lhs, rhs, p.expect(";")
}

// binOps are the infix operators the printer emits.
var binOps = map[string]bool{
	"+": true, "-": true, "*": true,
	"&": true, "|": true, "^": true,
	"==": true, "!=": true, "<": true, ">": true, "<=": true, ">=": true,
	"<<": true, ">>": true, ">>>": true,
}

// expr parses the printer's expression shape: compound subexpressions are
// always parenthesized, so no precedence is needed.
func (p *vparser) expr() (Expr, error) {
	e, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPunct && binOps[p.tok.text] {
		op := p.tok.text
		p.advanceTok()
		rhs, err := p.unary()
		if err != nil {
			return nil, err
		}
		e = Binary{Op: op, A: e, B: rhs}
	}
	if p.eat("?") {
		thenE, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		elseE, err := p.expr()
		if err != nil {
			return nil, err
		}
		e = Ternary{Cond: e, Then: thenE, Else: elseE}
	}
	return e, nil
}

func (p *vparser) unary() (Expr, error) {
	if p.tok.kind == tokPunct && (p.tok.text == "~" || p.tok.text == "!" ||
		p.tok.text == "&" || p.tok.text == "|" || p.tok.text == "^") {
		op := p.tok.text
		p.advanceTok()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: op, X: x}, nil
	}
	if p.tok.kind == tokIdent && strings.HasPrefix(p.tok.text, "$") {
		op := p.tok.text
		p.advanceTok()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		return Unary{Op: op, X: x}, p.expect(")")
	}
	return p.primary()
}

func (p *vparser) primary() (Expr, error) {
	switch {
	case p.eat("("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(")")
	case p.tok.kind == tokSized:
		e := Lit{Width: p.tok.width, Value: p.tok.value}
		p.advanceTok()
		return e, nil
	case p.tok.kind == tokNumber:
		e := Int(p.tok.num)
		p.advanceTok()
		return e, nil
	case p.tok.kind == tokString:
		e := Str(p.tok.text)
		p.advanceTok()
		return e, nil
	case p.at("{"):
		return p.braces()
	case p.tok.kind == tokIdent:
		name := p.tok.text
		p.advanceTok()
		return p.maybeSlice(Ref(name))
	default:
		return nil, fmt.Errorf("verilog: line %d: unexpected %s in expression", p.tok.line, p.tok)
	}
}

// braces parses {a, b} concatenations and {n{x}} repeats.
func (p *vparser) braces() (Expr, error) {
	p.advanceTok() // '{'
	// Repeat: {N{expr}}.
	if p.tok.kind == tokNumber {
		n := int(p.tok.num)
		save := p.tok
		p.advanceTok()
		if p.at("{") {
			p.advanceTok()
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("}"); err != nil {
				return nil, err
			}
			return Repeat{N: n, X: x}, p.expect("}")
		}
		// Plain number as the first concat part.
		first := Expr(Int(save.num))
		return p.concatRest(first)
	}
	first, err := p.expr()
	if err != nil {
		return nil, err
	}
	return p.concatRest(first)
}

func (p *vparser) concatRest(first Expr) (Expr, error) {
	parts := []Expr{first}
	for p.eat(",") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		parts = append(parts, e)
	}
	return Concat{Parts: parts}, p.expect("}")
}

// maybeSlice parses x[i] or x[hi:lo] suffixes.
func (p *vparser) maybeSlice(e Expr) (Expr, error) {
	for p.at("[") {
		p.advanceTok()
		if p.tok.kind != tokNumber {
			return nil, fmt.Errorf("verilog: line %d: expected index", p.tok.line)
		}
		hi := int(p.tok.num)
		p.advanceTok()
		if p.eat(":") {
			if p.tok.kind != tokNumber {
				return nil, fmt.Errorf("verilog: line %d: expected low index", p.tok.line)
			}
			lo := int(p.tok.num)
			p.advanceTok()
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = Slice{X: e, Hi: hi, Lo: lo}
			continue
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		e = Slice{X: e, Hi: hi, Lo: hi, Single: true}
	}
	return e, nil
}
