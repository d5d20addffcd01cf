package verilog

import (
	"fmt"
	"strconv"
	"strings"
)

// String renders the module as Verilog source.
func (m *Module) String() string {
	var b strings.Builder
	NewWriter(&b).module(m)
	return b.String()
}

// ExprString renders an expression.
func ExprString(e Expr) string {
	var b strings.Builder
	w := NewWriter(&b)
	w.expr(e)
	w.flush()
	return b.String()
}

// Writer appends Verilog text to one strings.Builder, and is the one
// place Verilog punctuation is written: Module.String walks the AST
// through it, and codegen streams structural Verilog through it without
// building an AST at all. The methods take plain values, so nothing is
// boxed, and nothing on the way goes through fmt or an intermediate
// string. Only the "unknown node" fallbacks of the AST walk, which no
// well-formed module reaches, still use fmt.
//
// A module is Module, one Port per port, EndPorts, then its items —
// Wire lines, Assign ... EndAssign lines and instances — and EndModule.
// An instance is any number of Attr or Loc calls (one attribute line),
// Instance, any number of Param ... EndConn parameters, InstanceName (or
// IndexedInstanceName), any number of Conn ... EndConn ports, and
// EndInstance. Between Param or Conn and EndConn, and after Assign,
// expressions are written with the leaves Name, Bit, Range, Hex, Int and
// Quoted, nested in OpenConcat ... Comma ... CloseConcat and
// OpenRepeat ... CloseRepeat. Lists separate their own elements.
//
// Text collects in a fixed buffer inside the writer and reaches the
// builder a buffer at a time, and at EndModule: a builder append stores
// a pointer, which costs a GC write barrier while the collector marks,
// and a byte copy into the writer's own array does not.
type Writer struct {
	b      *strings.Builder
	buf    [1024]byte // text not yet in b
	n      int        // bytes of buf in use
	indent int
	first  bool // the next port, parameter or connection opens its list
	attrs  bool // an attribute line is open
}

// NewWriter returns a writer appending to b.
func NewWriter(b *strings.Builder) *Writer { return &Writer{b: b} }

// flush moves the buffered text into the builder.
func (w *Writer) flush() {
	w.b.Write(w.buf[:w.n])
	w.n = 0
}

// room makes n bytes free in the buffer, if the buffer can hold them.
func (w *Writer) room(n int) bool {
	if n > len(w.buf)-w.n {
		w.flush()
	}
	return n <= len(w.buf)
}

func (w *Writer) str(s string) {
	if len(s) > len(w.buf)-w.n {
		w.long(s)
		return
	}
	w.n += copy(w.buf[w.n:], s)
}

// long is str for text the buffer has no room for.
func (w *Writer) long(s string) {
	if !w.room(len(s)) {
		w.b.WriteString(s)
		return
	}
	w.n += copy(w.buf[w.n:], s)
}

func (w *Writer) byte(c byte) {
	if w.n == len(w.buf) {
		w.flush()
	}
	w.buf[w.n] = c
	w.n++
}

func (w *Writer) int(v int64) {
	w.room(20)
	w.n = len(strconv.AppendInt(w.buf[:w.n], v, 10))
}

func (w *Writer) uint(v uint64, base int) {
	w.room(64)
	w.n = len(strconv.AppendUint(w.buf[:w.n], v, base))
}

// quote writes s as a Go-quoted string literal, which escapes each
// byte of s into at most ten. Printable ASCII other than '"' and '\\'
// quotes as itself.
func (w *Writer) quote(s string) {
	plain := true
	for i := 0; i < len(s) && plain; i++ {
		plain = ' ' <= s[i] && s[i] <= '~' && s[i] != '"' && s[i] != '\\'
	}
	if plain {
		w.byte('"')
		w.str(s)
		w.byte('"')
		return
	}
	if !w.room(2 + 10*len(s)) {
		w.str(strconv.Quote(s))
		return
	}
	w.n = len(strconv.AppendQuote(w.buf[:w.n], s))
}

// open starts a line at the current indent; nl ends it.
func (w *Writer) open() {
	const indents = "            "
	if 4*w.indent <= len(indents) {
		w.str(indents[:4*w.indent])
		return
	}
	for i := 0; i < w.indent; i++ {
		w.str("    ")
	}
}

func (w *Writer) nl() { w.byte('\n') }

// line writes one indented line of fixed text.
func (w *Writer) line(s string) {
	w.open()
	w.str(s)
	w.nl()
}

// sep writes the separator before a list element unless it is the first.
func (w *Writer) sep() {
	if w.first {
		w.first = false
		return
	}
	w.str(", ")
}

// Module opens the module header: `module name(`.
func (w *Writer) Module(name string) {
	w.open()
	w.str("module ")
	w.str(name)
	w.byte('(')
	w.first = true
}

// Port writes one header port: `input [w-1:0] name`.
func (w *Writer) Port(dir PortDir, name string, width int) { w.port(dir, false, name, width) }

func (w *Writer) port(dir PortDir, reg bool, name string, width int) {
	w.sep()
	w.str(dir.String())
	if reg {
		w.str(" reg")
	}
	w.width(width)
	w.byte(' ')
	w.str(name)
}

// EndPorts closes the header; the module's items follow, one level in.
func (w *Writer) EndPorts() {
	w.str(");")
	w.nl()
	w.indent++
}

// EndModule closes the module and hands all its text to the builder.
func (w *Writer) EndModule() {
	w.indent--
	w.line("endmodule")
	w.flush()
}

// width writes " [w-1:0]" for vectors and nothing for single bits.
func (w *Writer) width(width int) {
	if width > 1 {
		w.str(" [")
		w.int(int64(width - 1))
		w.str(":0]")
	}
}

// Wire writes `wire [w-1:0] name;`.
func (w *Writer) Wire(name string, width int) {
	w.open()
	w.str("wire")
	w.width(width)
	w.byte(' ')
	w.str(name)
	w.byte(';')
	w.nl()
}

// Assign opens `assign lhs = `; the right-hand side and EndAssign follow.
func (w *Writer) Assign(lhs string) {
	w.open()
	w.str("assign ")
	w.str(lhs)
	w.str(" = ")
}

// EndAssign ends an assignment or any other statement line.
func (w *Writer) EndAssign() {
	w.byte(';')
	w.nl()
}

// Attr adds key = "value" to the open attribute line, opening it first.
func (w *Writer) Attr(key, value string) {
	w.attrKey(key)
	w.quote(value)
}

// Loc adds the placement attribute LOC = "kind_X<x>Y<y>" in the Fig. 2c
// style. kind is a primitive name, which needs no escaping.
func (w *Writer) Loc(kind string, x, y int) {
	w.attrKey("LOC")
	w.byte('"')
	w.str(kind)
	w.str("_X")
	w.int(int64(x))
	w.byte('Y')
	w.int(int64(y))
	w.byte('"')
}

func (w *Writer) attrKey(key string) {
	if w.attrs {
		w.str(", ")
	} else {
		w.open()
		w.str("(* ")
		w.attrs = true
	}
	w.str(key)
	w.str(" = ")
}

// closeAttrs ends the open attribute line, if any.
func (w *Writer) closeAttrs() {
	if w.attrs {
		w.str(" *)")
		w.nl()
		w.attrs = false
	}
}

// Instance opens an instance of module on its own line, after the
// attribute line if one is open; parameters follow.
func (w *Writer) Instance(module string) {
	w.closeAttrs()
	w.open()
	w.str(module)
	w.first = true
}

// Param opens one parameter: ` # (.name(` or `, .name(`.
func (w *Writer) Param(name string) {
	if w.first {
		w.str(" # (")
		w.first = false
	} else {
		w.str(", ")
	}
	w.conn(name)
}

// InstanceName closes the parameters and writes the instance name on
// the next line, one level in; ports follow.
func (w *Writer) InstanceName(name string) {
	w.instanceLine()
	w.str(name)
	w.str(" (")
}

// IndexedInstanceName is InstanceName of base+suffix+<i in decimal>.
func (w *Writer) IndexedInstanceName(base, suffix string, i int) {
	w.instanceLine()
	w.str(base)
	w.str(suffix)
	w.int(int64(i))
	w.str(" (")
}

func (w *Writer) instanceLine() {
	if !w.first {
		w.byte(')')
	}
	w.nl()
	w.indent++
	w.open()
	w.indent--
	w.first = true
}

// Conn opens one port connection: `.name(`, after ", " unless first.
func (w *Writer) Conn(name string) {
	w.sep()
	w.conn(name)
}

func (w *Writer) conn(name string) {
	w.byte('.')
	w.str(name)
	w.byte('(')
}

// EndConn closes a parameter or port connection.
func (w *Writer) EndConn() { w.byte(')') }

// EndInstance closes the port list and the instance.
func (w *Writer) EndInstance() {
	w.str(");")
	w.nl()
}

// Name writes a net name.
func (w *Writer) Name(name string) { w.str(name) }

// Bit writes name[i].
func (w *Writer) Bit(name string, i int) {
	w.str(name)
	w.index(i)
}

// Range writes name[hi:lo].
func (w *Writer) Range(name string, hi, lo int) {
	w.str(name)
	w.rng(hi, lo)
}

func (w *Writer) index(i int) {
	w.byte('[')
	w.int(int64(i))
	w.byte(']')
}

func (w *Writer) rng(hi, lo int) {
	w.byte('[')
	w.int(int64(hi))
	w.byte(':')
	w.int(int64(lo))
	w.byte(']')
}

// Hex writes a sized hex literal masked to width bits, as a HexLit of
// positive width prints.
func (w *Writer) Hex(width int, value uint64) {
	if width > 0 && width < 64 {
		value &= 1<<uint(width) - 1
	}
	w.int(int64(width))
	w.str("'h")
	w.uint(value, 16)
}

// Int writes an unsized decimal literal.
func (w *Writer) Int(v int64) { w.int(v) }

// Quoted writes a string literal.
func (w *Writer) Quoted(s string) { w.quote(s) }

// OpenConcat opens {a, b, ...}; Comma separates its parts.
func (w *Writer) OpenConcat() { w.byte('{') }

// Comma separates the parts of a concatenation.
func (w *Writer) Comma() { w.str(", ") }

// CloseConcat closes a concatenation.
func (w *Writer) CloseConcat() { w.byte('}') }

// OpenRepeat opens {n{x}}; the repeated expression and CloseRepeat follow.
func (w *Writer) OpenRepeat(n int) {
	w.byte('{')
	w.int(int64(n))
	w.byte('{')
}

// CloseRepeat closes a replication.
func (w *Writer) CloseRepeat() { w.str("}}") }

// block writes the statements one level in, then tail (if any) on a line
// of its own at the outer level.
func (w *Writer) block(stmts []Stmt, tail string) {
	w.indent++
	for _, s := range stmts {
		w.stmt(s)
	}
	w.indent--
	if tail != "" {
		w.line(tail)
	}
}

func (w *Writer) module(m *Module) {
	for _, a := range m.Attrs {
		w.Attr(a.Key, a.Value)
	}
	w.closeAttrs()
	w.Module(m.Name)
	for _, port := range m.Ports {
		w.port(port.Dir, port.Reg, port.Name, port.Width)
	}
	w.EndPorts()
	for _, item := range m.Items {
		w.item(item)
	}
	w.EndModule()
}

func (w *Writer) item(item Item) {
	switch it := item.(type) {
	case Wire:
		w.Wire(it.Name, it.Width)
	case Reg:
		w.open()
		w.str("reg")
		w.width(it.Width)
		w.byte(' ')
		w.str(it.Name)
		if it.HasInit {
			w.str(" = ")
			w.expr(HexLit(it.Width, uint64(it.Init)))
		}
		w.EndAssign()
	case Assign:
		w.open()
		w.str("assign ")
		w.assign(it.LHS, " = ", it.RHS)
	case Instance:
		w.instance(it)
	case AlwaysFF:
		w.open()
		w.str("always @(posedge ")
		w.str(it.Clock)
		w.str(") begin")
		w.nl()
		w.block(it.Stmts, "end")
	case AlwaysComb:
		w.line("always @* begin")
		w.block(it.Stmts, "end")
	case Comment:
		w.open()
		w.str("// ")
		w.str(string(it))
		w.nl()
	case Raw:
		rest, more := strings.TrimRight(string(it), "\n"), true
		for more {
			var ln string
			ln, rest, more = strings.Cut(rest, "\n")
			w.line(ln)
		}
	default:
		w.line(fmt.Sprintf("// verilog: unknown item %T", item))
	}
}

// assign finishes an already opened line with `lhs op rhs;`.
func (w *Writer) assign(lhs Expr, op string, rhs Expr) {
	w.expr(lhs)
	w.str(op)
	w.expr(rhs)
	w.EndAssign()
}

func (w *Writer) instance(it Instance) {
	for _, a := range it.Attrs {
		w.Attr(a.Key, a.Value)
	}
	w.Instance(it.Module)
	for _, c := range it.Params {
		w.Param(c.Name)
		w.expr(c.Expr)
		w.EndConn()
	}
	w.InstanceName(it.Name)
	for _, c := range it.Ports {
		w.Conn(c.Name)
		w.expr(c.Expr)
		w.EndConn()
	}
	w.EndInstance()
}

func (w *Writer) stmt(s Stmt) {
	switch st := s.(type) {
	case NonBlocking:
		w.open()
		w.assign(st.LHS, " <= ", st.RHS)
	case Blocking:
		w.open()
		w.assign(st.LHS, " = ", st.RHS)
	case If:
		w.open()
		w.str("if (")
		w.expr(st.Cond)
		w.str(") begin")
		w.nl()
		w.block(st.Then, "")
		if len(st.Else) > 0 {
			w.line("end else begin")
			w.block(st.Else, "")
		}
		w.line("end")
	case Case:
		w.open()
		w.str("case (")
		w.expr(st.Subject)
		w.byte(')')
		w.nl()
		w.indent++
		for _, arm := range st.Arms {
			w.open()
			w.expr(arm.Match)
			w.str(": begin")
			w.nl()
			w.block(arm.Stmts, "end")
		}
		if len(st.Default) > 0 {
			w.line("default: begin")
			w.block(st.Default, "end")
		}
		w.indent--
		w.line("endcase")
	default:
		w.line(fmt.Sprintf("// verilog: unknown stmt %T", s))
	}
}

func (w *Writer) expr(e Expr) {
	switch ex := e.(type) {
	case Ref:
		w.Name(string(ex))
	case Lit:
		if ex.Width != 0 {
			w.int(int64(ex.Width))
			w.str("'h")
			w.uint(ex.Value, 16)
		} else {
			w.uint(ex.Value, 10)
		}
	case Int:
		w.Int(int64(ex))
	case Str:
		w.Quoted(string(ex))
	case Unary:
		w.str(ex.Op)
		if len(ex.Op) > 1 { // function-like operators such as $signed
			w.byte('(')
			w.expr(ex.X)
			w.byte(')')
		} else {
			w.paren(ex.X)
		}
	case Binary:
		w.paren(ex.A)
		w.byte(' ')
		w.str(ex.Op)
		w.byte(' ')
		w.paren(ex.B)
	case Ternary:
		w.paren(ex.Cond)
		w.str(" ? ")
		w.paren(ex.Then)
		w.str(" : ")
		w.paren(ex.Else)
	case Concat:
		w.OpenConcat()
		for i, part := range ex.Parts {
			if i > 0 {
				w.Comma()
			}
			w.expr(part)
		}
		w.CloseConcat()
	case Slice:
		w.paren(ex.X)
		if ex.Single {
			w.index(ex.Hi)
		} else {
			w.rng(ex.Hi, ex.Lo)
		}
	case Repeat:
		w.OpenRepeat(ex.N)
		w.expr(ex.X)
		w.CloseRepeat()
	default:
		w.str(fmt.Sprintf("/* unknown expr %T */", e))
	}
}

// paren wraps compound subexpressions so the printer never depends on
// Verilog precedence.
func (w *Writer) paren(e Expr) {
	switch ex := e.(type) {
	case Ref, Lit, Int, Concat, Slice, Repeat:
		w.expr(e)
		return
	case Unary:
		if len(ex.Op) > 1 { // $signed(x) is already self-delimiting
			w.expr(e)
			return
		}
	}
	w.byte('(')
	w.expr(e)
	w.byte(')')
}
