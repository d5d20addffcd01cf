package verilog

import (
	"fmt"
	"strconv"
	"strings"
)

// String renders the module as Verilog source.
func (m *Module) String() string {
	var p printer
	p.module(m)
	return p.b.String()
}

// ExprString renders an expression.
func ExprString(e Expr) string {
	var p printer
	p.expr(e)
	return p.b.String()
}

// printer appends Verilog text to one builder. Nothing on the way goes
// through fmt or an intermediate string: once placement stopped copying
// domains, formatting every connection of every instance with Sprintf and
// Join was the largest frame of a LUT-class compile. Only the "unknown
// node" fallbacks, which no well-formed module reaches, still use fmt.
type printer struct {
	b      strings.Builder
	indent int
	num    [32]byte // scratch for strconv.Append*
}

func (p *printer) str(s string)   { p.b.WriteString(s) }
func (p *printer) int(v int64)    { p.b.Write(strconv.AppendInt(p.num[:0], v, 10)) }
func (p *printer) quote(s string) { p.b.Write(strconv.AppendQuote(p.num[:0], s)) }

// open starts a line at the current indent; nl ends it.
func (p *printer) open() {
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("    ")
	}
}

func (p *printer) nl() { p.b.WriteByte('\n') }

// line writes one indented line of fixed text.
func (p *printer) line(s string) {
	p.open()
	p.str(s)
	p.nl()
}

// block writes the statements one level in, then tail (if any) on a line
// of its own at the outer level.
func (p *printer) block(stmts []Stmt, tail string) {
	p.indent++
	for _, s := range stmts {
		p.stmt(s)
	}
	p.indent--
	if tail != "" {
		p.line(tail)
	}
}

func (p *printer) module(m *Module) {
	if len(m.Attrs) > 0 {
		p.open()
		p.attrs(m.Attrs)
		p.nl()
	}
	p.open()
	p.str("module ")
	p.str(m.Name)
	p.str("(")
	for i, port := range m.Ports {
		if i > 0 {
			p.str(", ")
		}
		p.str(port.Dir.String())
		if port.Reg {
			p.str(" reg")
		}
		p.width(port.Width)
		p.str(" ")
		p.str(port.Name)
	}
	p.str(");")
	p.nl()
	p.indent++
	for _, item := range m.Items {
		p.item(item)
	}
	p.indent--
	p.line("endmodule")
}

// attrs writes (* k = "v", ... *).
func (p *printer) attrs(attrs []Attr) {
	p.str("(* ")
	for i, a := range attrs {
		if i > 0 {
			p.str(", ")
		}
		p.str(a.Key)
		p.str(" = ")
		p.quote(a.Value)
	}
	p.str(" *)")
}

// width writes " [w-1:0]" for vectors and nothing for single bits.
func (p *printer) width(width int) {
	if width > 1 {
		p.str(" [")
		p.int(int64(width - 1))
		p.str(":0]")
	}
}

func (p *printer) item(item Item) {
	switch it := item.(type) {
	case Wire:
		p.open()
		p.str("wire")
		p.width(it.Width)
		p.str(" ")
		p.str(it.Name)
		p.str(";")
		p.nl()
	case Reg:
		p.open()
		p.str("reg")
		p.width(it.Width)
		p.str(" ")
		p.str(it.Name)
		if it.HasInit {
			p.str(" = ")
			p.expr(HexLit(it.Width, uint64(it.Init)))
		}
		p.str(";")
		p.nl()
	case Assign:
		p.open()
		p.str("assign ")
		p.assign(it.LHS, " = ", it.RHS)
	case Instance:
		p.instance(it)
	case AlwaysFF:
		p.open()
		p.str("always @(posedge ")
		p.str(it.Clock)
		p.str(") begin")
		p.nl()
		p.block(it.Stmts, "end")
	case AlwaysComb:
		p.line("always @* begin")
		p.block(it.Stmts, "end")
	case Comment:
		p.open()
		p.str("// ")
		p.str(string(it))
		p.nl()
	case Raw:
		rest, more := strings.TrimRight(string(it), "\n"), true
		for more {
			var ln string
			ln, rest, more = strings.Cut(rest, "\n")
			p.line(ln)
		}
	default:
		p.line(fmt.Sprintf("// verilog: unknown item %T", item))
	}
}

// assign finishes an already opened line with `lhs op rhs;`.
func (p *printer) assign(lhs Expr, op string, rhs Expr) {
	p.expr(lhs)
	p.str(op)
	p.expr(rhs)
	p.str(";")
	p.nl()
}

func (p *printer) instance(it Instance) {
	if len(it.Attrs) > 0 {
		p.open()
		p.attrs(it.Attrs)
		p.nl()
	}
	p.open()
	p.str(it.Module)
	if len(it.Params) > 0 {
		p.str(" # (")
		p.conns(it.Params)
		p.str(")")
	}
	p.nl()
	p.indent++
	p.open()
	p.str(it.Name)
	p.str(" (")
	p.conns(it.Ports)
	p.str(");")
	p.nl()
	p.indent--
}

// conns writes .name(expr), ...
func (p *printer) conns(conns []Connection) {
	for i, c := range conns {
		if i > 0 {
			p.str(", ")
		}
		p.str(".")
		p.str(c.Name)
		p.str("(")
		p.expr(c.Expr)
		p.str(")")
	}
}

func (p *printer) stmt(s Stmt) {
	switch st := s.(type) {
	case NonBlocking:
		p.open()
		p.assign(st.LHS, " <= ", st.RHS)
	case Blocking:
		p.open()
		p.assign(st.LHS, " = ", st.RHS)
	case If:
		p.open()
		p.str("if (")
		p.expr(st.Cond)
		p.str(") begin")
		p.nl()
		p.block(st.Then, "")
		if len(st.Else) > 0 {
			p.line("end else begin")
			p.block(st.Else, "")
		}
		p.line("end")
	case Case:
		p.open()
		p.str("case (")
		p.expr(st.Subject)
		p.str(")")
		p.nl()
		p.indent++
		for _, arm := range st.Arms {
			p.open()
			p.expr(arm.Match)
			p.str(": begin")
			p.nl()
			p.block(arm.Stmts, "end")
		}
		if len(st.Default) > 0 {
			p.line("default: begin")
			p.block(st.Default, "end")
		}
		p.indent--
		p.line("endcase")
	default:
		p.line(fmt.Sprintf("// verilog: unknown stmt %T", s))
	}
}

func (p *printer) expr(e Expr) {
	switch ex := e.(type) {
	case Ref:
		p.str(string(ex))
	case Lit:
		if ex.Width != 0 {
			p.int(int64(ex.Width))
			p.str("'h")
			p.b.Write(strconv.AppendUint(p.num[:0], ex.Value, 16))
		} else {
			p.b.Write(strconv.AppendUint(p.num[:0], ex.Value, 10))
		}
	case Int:
		p.int(int64(ex))
	case Str:
		p.quote(string(ex))
	case Unary:
		p.str(ex.Op)
		if len(ex.Op) > 1 { // function-like operators such as $signed
			p.str("(")
			p.expr(ex.X)
			p.str(")")
		} else {
			p.paren(ex.X)
		}
	case Binary:
		p.paren(ex.A)
		p.str(" ")
		p.str(ex.Op)
		p.str(" ")
		p.paren(ex.B)
	case Ternary:
		p.paren(ex.Cond)
		p.str(" ? ")
		p.paren(ex.Then)
		p.str(" : ")
		p.paren(ex.Else)
	case Concat:
		p.str("{")
		for i, part := range ex.Parts {
			if i > 0 {
				p.str(", ")
			}
			p.expr(part)
		}
		p.str("}")
	case Slice:
		p.paren(ex.X)
		p.str("[")
		p.int(int64(ex.Hi))
		if !ex.Single {
			p.str(":")
			p.int(int64(ex.Lo))
		}
		p.str("]")
	case Repeat:
		p.str("{")
		p.int(int64(ex.N))
		p.str("{")
		p.expr(ex.X)
		p.str("}}")
	default:
		p.str(fmt.Sprintf("/* unknown expr %T */", e))
	}
}

// paren wraps compound subexpressions so the printer never depends on
// Verilog precedence.
func (p *printer) paren(e Expr) {
	switch ex := e.(type) {
	case Ref, Lit, Int, Concat, Slice, Repeat:
		p.expr(e)
		return
	case Unary:
		if len(ex.Op) > 1 { // $signed(x) is already self-delimiting
			p.expr(e)
			return
		}
	}
	p.str("(")
	p.expr(e)
	p.str(")")
}
