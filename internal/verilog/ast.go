// Package verilog is the Verilog the repo writes and reads: a streaming
// writer, a syntax tree with its printer, and a parser. It stands where
// the paper's implementation uses a general Verilog AST library (§6:
// 2486 LoC of Rust), but holds only the subset this repo needs.
//
// Two dialects make up that subset: structural Verilog — primitive
// instances with parameters and layout attributes (Fig. 2b/2c), which
// codegen streams through Writer — and the behavioral subset of the
// baseline translation backends (package behav), read back by package
// vfront: wire and reg declarations, continuous assignments, and clocked
// always blocks of non-blocking assignments, each optionally under an
// if without else.
package verilog

// PortDir is a module port direction.
type PortDir uint8

// Port directions.
const (
	Input PortDir = iota
	Output
)

func (d PortDir) String() string {
	if d == Input {
		return "input"
	}
	return "output"
}

// Port is one module port. Width is in bits; 1 prints without a range.
// Reg marks output registers (behavioral dialect).
type Port struct {
	Dir   PortDir
	Name  string
	Width int
	Reg   bool
}

// Module is a Verilog module.
type Module struct {
	Name  string
	Attrs []Attr // module-level attributes, e.g. (* use_dsp = "yes" *)
	Ports []Port
	Items []Item
}

// AddPort appends a port.
func (m *Module) AddPort(dir PortDir, name string, width int) {
	m.Ports = append(m.Ports, Port{Dir: dir, Name: name, Width: width})
}

// AddItem appends a body item.
func (m *Module) AddItem(items ...Item) {
	m.Items = append(m.Items, items...)
}

// Attr is a Verilog attribute: key = "value" inside (* ... *).
type Attr struct {
	Key   string
	Value string
}

// Item is a module body item.
type Item interface{ isItem() }

// Wire declares a wire.
type Wire struct {
	Name  string
	Width int
}

// Reg declares a reg.
type Reg struct {
	Name  string
	Width int
	// Init is an optional initial value rendered as an initial block by
	// the printer when HasInit is set.
	Init    int64
	HasInit bool
}

// Assign is a continuous assignment: assign LHS = RHS;
type Assign struct {
	LHS Expr
	RHS Expr
}

// Instance instantiates a primitive or module, optionally with parameters
// and attributes:
//
//	(* LOC = "SLICE_X0Y0" *)
//	LUT2 # (.INIT(4'h8)) i0 (.I0(a), .I1(b), .O(y));
type Instance struct {
	Attrs  []Attr
	Module string
	Name   string
	Params []Connection
	Ports  []Connection
}

// Connection is one named parameter or port hookup.
type Connection struct {
	Name string
	Expr Expr
}

// AlwaysFF is a clocked process: always @(posedge clk) begin ... end.
type AlwaysFF struct {
	Clock string
	Stmts []Stmt
}

func (Wire) isItem()     {}
func (Reg) isItem()      {}
func (Assign) isItem()   {}
func (Instance) isItem() {}
func (AlwaysFF) isItem() {}

// Stmt is a statement inside an always block.
type Stmt interface{ isStmt() }

// NonBlocking is LHS <= RHS;
type NonBlocking struct {
	LHS Expr
	RHS Expr
}

// If is a conditional statement without else: if (Cond) begin Then end.
type If struct {
	Cond Expr
	Then []Stmt
}

func (NonBlocking) isStmt() {}
func (If) isStmt()          {}

// Expr is a Verilog expression.
type Expr interface{ isExpr() }

// Ref names a wire, reg, or port.
type Ref string

// Lit is a sized literal, printed as <width>'h<hex> (or a bare decimal
// when Width is zero).
type Lit struct {
	Width int
	Value uint64
}

// Int is an unsized decimal literal (parameter values, repeat counts).
type Int int64

// Str is a string literal (parameter values like "yes").
type Str string

// Unary applies a prefix operator: ~x, -x, |x (reduction), &x, ^x.
type Unary struct {
	Op string
	X  Expr
}

// Binary applies an infix operator.
type Binary struct {
	Op   string
	A, B Expr
}

// Ternary is c ? a : b.
type Ternary struct {
	Cond, Then, Else Expr
}

// Concat is {a, b, ...} (most significant first, as in Verilog).
type Concat struct {
	Parts []Expr
}

// Slice is x[hi:lo], or x[bit] when Hi == Lo and Single is set.
type Slice struct {
	X      Expr
	Hi, Lo int
	Single bool
}

// Repeat is {n{x}}.
type Repeat struct {
	N int
	X Expr
}

func (Ref) isExpr()     {}
func (Lit) isExpr()     {}
func (Int) isExpr()     {}
func (Str) isExpr()     {}
func (Unary) isExpr()   {}
func (Binary) isExpr()  {}
func (Ternary) isExpr() {}
func (Concat) isExpr()  {}
func (Slice) isExpr()   {}
func (Repeat) isExpr()  {}

// Index returns x[i].
func Index(x Expr, i int) Expr { return Slice{X: x, Hi: i, Lo: i, Single: true} }

// HexLit builds a sized hex literal masked to width bits.
func HexLit(width int, value uint64) Lit {
	if width > 0 && width < 64 {
		value &= 1<<uint(width) - 1
	}
	return Lit{Width: width, Value: value}
}
