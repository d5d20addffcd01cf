// Package codegen implements Reticle's code generation stage (§5.4 of the
// paper): expanding placed assembly programs into structural Verilog with
// layout annotations (Fig. 2c).
//
// DSP-based instructions become one DSP primitive instance configured for
// the selected operation. LUT-based instructions expand bit by bit: one
// LUT per bit of computation, carry chains for arithmetic and comparisons,
// and one flip-flop per register bit. Wire instructions become plain
// continuous assignments and consume no primitives. Every primitive is
// annotated with the coordinates chosen by instruction placement.
package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"reticle/internal/asm"
	"reticle/internal/ir"
	"reticle/internal/tdl"
	"reticle/internal/verilog"
)

// Stats counts emitted primitives; utilization figures read from here.
type Stats struct {
	Luts    int // LUT instances
	Carries int // CARRY8 instances
	FFs     int // flip-flop instances
	Dsps    int // DSP instances
}

// Generate emits a structural Verilog module for a placed assembly
// function. Every assembly instruction must have a resolved location.
// The module is appended straight into the returned builder through a
// verilog.Writer, in emission order: no module AST is built.
func Generate(f *asm.Func, target *tdl.Target) (*strings.Builder, Stats, error) {
	syms, err := asm.Resolve(f, target)
	if err != nil {
		return nil, Stats{}, err
	}
	return GenerateWithSymbols(f, syms, target)
}

// GenerateWithSymbols is Generate on a program already checked against
// target, syms being the symbol table that check built.
func GenerateWithSymbols(f *asm.Func, syms ir.Symbols, target *tdl.Target) (*strings.Builder, Stats, error) {
	if !f.Resolved() {
		return nil, Stats{}, fmt.Errorf("codegen: function %s has unresolved locations; run placement first", f.Name)
	}
	g := newGen(f, target, syms)
	if g.mayCollide() {
		g = newCheckedGen(f, target, syms)
	}
	return g.module()
}

type gen struct {
	f      *asm.Func
	syms   ir.Symbols // f's symbol table, from asm.Resolve
	target *tdl.Target
	w      *verilog.Writer
	b      *strings.Builder
	idents map[string]bool // the input and value names
	tmp    int

	// What one pass over the body learns: whether a clock port is
	// needed, and the destinations of LUT instructions whose operation
	// has more than one body step (each gets a fresh "_"+dest+n wire).
	clocked bool
	steps   []string
	// clk names the clock port; declared, when set, holds every
	// identifier declared so far (newCheckedGen).
	clk      string
	declared map[string]bool

	// The slice the LUT instruction being expanded is placed on.
	x, y int
	// Scratch reused across instructions: the body-name substitution of
	// the LUT instruction being expanded, its operands, and name bytes.
	locals []local
	args   []string
	nb     []byte
}

// local binds a name of a TDL body to the module wire it stands for.
type local struct {
	name, wire string
	typ        ir.Type
}

// newGen scans f once and sizes the builder from what it found: a line
// per port and value, a DSP instance per DSP instruction, and a slice
// primitive per result bit of each LUT body step (per partial product
// for a multiply), so that the builder is allocated about once.
func newGen(f *asm.Func, target *tdl.Target, syms ir.Symbols) *gen {
	g := &gen{
		f:      f,
		syms:   syms,
		target: target,
		b:      new(strings.Builder),
		idents: make(map[string]bool, len(f.Inputs)+len(f.Body)),
		clk:    "clk",
	}
	g.w = verilog.NewWriter(g.b)
	for _, p := range f.Inputs {
		g.idents[p.Name] = true
	}
	size := 40 * (len(f.Inputs) + len(f.Outputs) + 2*len(f.Body))
	for _, in := range f.Body {
		g.idents[in.Dest] = true
		def, ok := target.Lookup(in.Name)
		if in.IsWire() || !ok {
			continue
		}
		g.clocked = g.clocked || def.Stateful()
		if in.Loc.Prim == ir.ResDsp {
			size += 400
			continue
		}
		if len(def.Body) > 1 {
			g.steps = append(g.steps, in.Dest)
		}
		for _, body := range def.Body {
			w := body.Type.Bits()
			if body.Op == ir.OpMul {
				w *= w + 1
			}
			size += 140 * w
		}
	}
	g.b.Grow(size)
	return g
}

// mayCollide reports whether f needs the checked path: some name that
// is not a Verilog identifier, or a value name that a generated name
// could meet. Generated names are "clk", "dsp_"+v, v+"_lut"+i and the
// like, and fresh wires "_"+v+...: each puts "_" after the value name v
// it derives from, except the fresh wire of a LUT body step, "_"+v+n,
// which puts a digit there. So a generated name can meet another
// identifier only if a value name is "clk" or "dsp", starts with "_" or
// "dsp_", or extends a value name by "_" or a body-stepped one by a
// digit.
func (g *gen) mayCollide() bool {
	if !verilog.IsIdent(g.f.Name) {
		return true
	}
	for _, p := range g.f.Inputs {
		if g.risky(p.Name) {
			return true
		}
	}
	for _, in := range g.f.Body {
		if g.risky(in.Dest) {
			return true
		}
	}
	return false
}

func (g *gen) risky(name string) bool {
	if !verilog.IsIdent(name) || name == "clk" || name == "dsp" ||
		strings.HasPrefix(name, "_") || strings.HasPrefix(name, "dsp_") {
		return true
	}
	for k := 1; k < len(name); k++ {
		switch c := name[k]; {
		case c == '_':
			if g.idents[name[:k]] {
				return true
			}
		case '0' <= c && c <= '9' && len(g.steps) > 0:
			for _, v := range g.steps {
				if v == name[:k] {
					return true
				}
			}
		}
	}
	return false
}

// newCheckedGen is newGen on f with every name that is not a Verilog
// identifier spelled by verilog.Ident, and with every generated
// identifier checked against those declared before it: one that meets
// a declared identifier takes the first free suffix "$k", which no IR
// name contains. Value names are declared first, so they never move.
// A module that needs no suffix and no renaming comes out byte for byte
// as the unchecked path writes it.
func newCheckedGen(f *asm.Func, target *tdl.Target, syms ir.Symbols) *gen {
	f = f.Clone()
	f.Name = verilog.Ident(f.Name)
	for i := range f.Inputs {
		f.Inputs[i].Name = verilog.Ident(f.Inputs[i].Name)
	}
	for i := range f.Outputs {
		f.Outputs[i].Name = verilog.Ident(f.Outputs[i].Name)
	}
	for i := range f.Body {
		in := &f.Body[i]
		in.Dest = verilog.Ident(in.Dest)
		for j, a := range in.Args {
			in.Args[j] = verilog.Ident(a)
		}
	}
	g := newGen(f, target, syms)
	g.declared = g.idents
	return g
}

// declare returns name, or on the checked path the first of name,
// name$1, name$2, ... that is not declared yet, and declares it.
func (g *gen) declare(name string) string {
	if g.declared == nil {
		return name
	}
	s := name
	for k := 1; g.declared[s]; k++ {
		s = name + "$" + strconv.Itoa(k)
	}
	g.declared[s] = true
	return s
}

// instanceName writes the instance name base+suffix+i, declared.
func (g *gen) instanceName(base, suffix string, i int) {
	if g.declared == nil {
		g.w.IndexedInstanceName(base, suffix, i)
		return
	}
	g.w.InstanceName(g.declare(base + suffix + strconv.Itoa(i)))
}

// prefixedInstanceName writes the instance name prefix+name, declared.
// On the unchecked path the concatenation does not escape, so the
// compiler builds it on the stack: no allocation per DSP instance.
func (g *gen) prefixedInstanceName(prefix, name string) {
	if g.declared == nil {
		g.w.InstanceName(prefix + name)
		return
	}
	g.w.InstanceName(g.declare(prefix + name))
}

// module writes the whole module.
func (g *gen) module() (*strings.Builder, Stats, error) {
	var st Stats
	f := g.f
	// Ports: clock first when any instruction is stateful.
	g.w.Module(f.Name)
	if g.clocked {
		g.clk = g.declare("clk")
		g.w.Port(verilog.Input, g.clk, 1)
	}
	for _, p := range f.Inputs {
		g.w.Port(verilog.Input, p.Name, p.Type.Bits())
	}
	for _, p := range f.Outputs {
		g.w.Port(verilog.Output, p.Name, p.Type.Bits())
	}
	g.w.EndPorts()

	// Wire declarations for every internal value: each instruction
	// result no output port declares.
	isOut := make([]bool, len(f.Body))
	for _, v := range g.syms.Outputs {
		isOut[int(v)-len(f.Inputs)] = true // an output never names an input
	}
	for i, in := range f.Body {
		if !isOut[i] {
			g.w.Wire(in.Dest, in.Type.Bits())
		}
	}

	args := g.syms.Args
	for _, in := range f.Body {
		argv := args[:len(in.Args)]
		args = args[len(in.Args):]
		if in.IsWire() {
			if err := g.wire(in, argv); err != nil {
				return nil, st, err
			}
			continue
		}
		if err := g.instr(in, &st); err != nil {
			return nil, st, err
		}
	}
	g.w.EndModule()
	return g.b, st, nil
}

// fresh returns a new internal wire name: _<dest><kind><n>.
func (g *gen) fresh(dest, kind string) string { return g.freshRow(dest, kind, -1) }

// freshRow is fresh with a row number after kind: _<dest><kind><row><n>.
// A negative row is omitted.
func (g *gen) freshRow(dest, kind string, row int) string {
	g.tmp++
	b := append(g.nb[:0], '_')
	b = append(b, dest...)
	b = append(b, kind...)
	if row >= 0 {
		b = strconv.AppendInt(b, int64(row), 10)
	}
	b = strconv.AppendInt(b, int64(g.tmp), 10)
	g.nb = b
	return g.declare(string(b))
}

// wire lowers a wire instruction to a continuous assignment (§5.4: wire
// operations consume no area; they simply require different wiring).
// argv holds the values behind its arguments.
func (g *gen) wire(in asm.Instr, argv []int32) error {
	g.w.Assign(in.Dest)
	if err := g.wireExpr(in, argv); err != nil {
		return fmt.Errorf("codegen: %s: %w", in.Dest, err)
	}
	g.w.EndAssign()
	return nil
}

// wireExpr writes the Verilog expression for one wire instruction.
func (g *gen) wireExpr(in asm.Instr, argv []int32) error {
	w := g.w
	switch in.Op {
	case ir.OpConst:
		g.constExpr(in.Type, in.Attrs)
		return nil
	case ir.OpId:
		w.Name(in.Args[0])
		return nil
	case ir.OpSll, ir.OpSrl, ir.OpSra:
		bits := in.Type.Bits()
		k := int(in.Attrs[0])
		a := in.Args[0]
		if k == 0 {
			w.Name(a)
			return nil
		}
		w.OpenConcat()
		switch in.Op {
		case ir.OpSll:
			w.Range(a, bits-k-1, 0)
			w.Comma()
			w.Hex(k, 0)
		case ir.OpSrl:
			w.Hex(k, 0)
			w.Comma()
			w.Range(a, bits-1, k)
		default:
			w.OpenRepeat(k)
			w.Bit(a, bits-1)
			w.CloseRepeat()
			w.Comma()
			w.Range(a, bits-1, k)
		}
		w.CloseConcat()
		return nil
	case ir.OpSlice:
		a := in.Args[0]
		if src := g.f.ValueType(argv[0]); src.IsVector() {
			lane := int(in.Attrs[0])
			lw := src.Width()
			w.Range(a, (lane+1)*lw-1, lane*lw)
			return nil
		}
		hi, lo := int(in.Attrs[0]), int(in.Attrs[1])
		if hi == lo {
			w.Bit(a, hi)
		} else {
			w.Range(a, hi, lo)
		}
		return nil
	case ir.OpCat:
		// First operand supplies the low bits; Verilog concat is MSB-first.
		w.OpenConcat()
		w.Name(in.Args[1])
		w.Comma()
		w.Name(in.Args[0])
		w.CloseConcat()
		return nil
	}
	return fmt.Errorf("not a wire operation: %s", in.Op)
}

// constExpr flattens a constant (splat or per-lane) into one sized literal.
// Lane 0 occupies the least significant bits.
func (g *gen) constExpr(t ir.Type, attrs []int64) {
	w := t.Width()
	lanes := t.Lanes()
	var bits uint64
	for i := 0; i < lanes; i++ {
		v := attrs[0]
		if len(attrs) == lanes {
			v = attrs[i]
		}
		bits |= (uint64(v) & maskBits(w)) << uint(i*w)
	}
	g.w.Hex(t.Bits(), bits)
}

func maskBits(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// instr lowers one assembly instruction to primitives.
func (g *gen) instr(in asm.Instr, st *Stats) error {
	def, _ := g.target.Lookup(in.Name)
	x := int(in.Loc.X.Off)
	y := int(in.Loc.Y.Off)
	switch in.Loc.Prim {
	case ir.ResDsp:
		g.dsp(in, def, x, y, st)
		return nil
	case ir.ResLut:
		g.x, g.y = x, y
		return g.lut(in, def, st)
	default:
		return fmt.Errorf("codegen: %s: primitive %s", in.Dest, in.Loc.Prim)
	}
}

// dspPorts are the general-fabric DSP data inputs, assigned in turn.
var dspPorts = [...]string{"A", "B", "C", "D"}

// dsp emits one configured DSP slice instance. The instance carries the
// concrete DSP48E2-style configuration — OPMODE/ALUMODE multiplexer
// settings, SIMD mode, pipeline registers, cascade routing — derived from
// the instruction's TDL semantics: the handful of parameters (out of the
// ~96 the paper mentions, §2) that this operation set exercises. FUNC
// keeps the symbolic name for readability.
func (g *gen) dsp(in asm.Instr, def *tdl.Def, x, y int, st *Stats) {
	st.Dsps++
	cfg := dspConfig(in, def)
	w := g.w
	w.Loc("DSP48E2", x, y)
	w.Instance("DSP48E2")
	w.Param("FUNC")
	w.Quoted(def.Name)
	w.EndConn()
	w.Param("OPMODE")
	w.Hex(9, cfg.opmode)
	w.EndConn()
	w.Param("ALUMODE")
	w.Hex(4, cfg.alumode)
	w.EndConn()
	w.Param("USE_SIMD")
	w.Quoted(cfg.simd)
	w.EndConn()
	w.Param("PREG")
	w.Int(int64(cfg.preg))
	w.EndConn()
	if def.Stateful() {
		init := int64(0)
		if len(in.Attrs) > 0 {
			init = in.Attrs[0]
		}
		w.Param("INIT")
		w.Int(init)
		w.EndConn()
	}
	g.prefixedInstanceName("dsp_", in.Dest)
	if def.Stateful() {
		g.conn("CLK", g.clk)
	}
	pi := 0
	for i, p := range def.Inputs {
		name := ""
		switch {
		case p.Name == "en" && p.Type.IsBool():
			name = "CE"
		case p.Name == "c" && cfg.chainIn:
			// Cascade consumers read the partial sum from the dedicated
			// column route, not the general-fabric C port (§5.2).
			name = "PCIN"
		default:
			name = dspPorts[pi%len(dspPorts)]
			pi++
		}
		g.conn(name, in.Args[i])
	}
	out := "P"
	if cfg.chainOut {
		out = "PCOUT" // drives the cascade output instead of the default port
	}
	g.conn(out, in.Dest)
	w.EndInstance()
}

// dspParams is the derived slice configuration.
type dspParams struct {
	opmode   uint64 // X/Y/Z multiplexer selects (DSP48E2 user guide table style)
	alumode  uint64 // 0000 = Z+X+Y, 0011 = Z-X-Y
	simd     string // ONE48, TWO24, FOUR12
	preg     int    // output pipeline register
	chainIn  bool
	chainOut bool
}

// dspConfig derives the configuration from the definition's IR semantics.
func dspConfig(in asm.Instr, def *tdl.Def) dspParams {
	cfg := dspParams{simd: "ONE48"}
	switch def.Output.Type.Lanes() {
	case 2:
		cfg.simd = "TWO24"
	case 4:
		cfg.simd = "FOUR12"
	}
	hasMul, hasAddSub, sub := false, false, false
	for _, b := range def.Body {
		switch b.Op {
		case ir.OpMul:
			hasMul = true
		case ir.OpAdd:
			hasAddSub = true
		case ir.OpSub:
			hasAddSub, sub = true, true
		case ir.OpReg:
			cfg.preg = 1
		}
	}
	// OPMODE fields: Z (bits 6:4), Y (3:2), X (1:0).
	const (
		xAB = 0b11  // X = A:B concatenation
		xM  = 0b01  // X = multiplier output
		yM  = 0b01  // Y = multiplier output (must pair with X=M)
		yC  = 0b11  // Y = C
		z0  = 0b000 // Z = 0
		zC  = 0b011 // Z = C port
		zPC = 0b001 // Z = PCIN cascade input
	)
	switch {
	case hasMul && hasAddSub: // multiply-accumulate: M (X,Y) plus C or PCIN (Z)
		cfg.opmode = uint64(zC<<4 | yM<<2 | xM)
	case hasMul: // multiply only
		cfg.opmode = uint64(z0<<4 | yM<<2 | xM)
	case hasAddSub: // ALU: A:B with C
		cfg.opmode = uint64(zC<<4 | yC<<2 | xAB)
	default: // register/logic pass-through of A:B
		cfg.opmode = uint64(z0<<4 | 0<<2 | xAB)
	}
	if sub {
		cfg.alumode = 0b0011
	}
	if strings.HasSuffix(in.Name, "_ci") || strings.HasSuffix(in.Name, "_coci") ||
		strings.HasSuffix(in.Name, "_chainin") || strings.HasSuffix(in.Name, "_chain") {
		cfg.chainIn = true
		cfg.opmode = cfg.opmode&^uint64(0b111<<4) | uint64(zPC<<4)
	}
	if strings.HasSuffix(in.Name, "_co") || strings.HasSuffix(in.Name, "_coci") ||
		strings.HasSuffix(in.Name, "_chainout") || strings.HasSuffix(in.Name, "_chain") {
		cfg.chainOut = true
	}
	return cfg
}

// lut expands a LUT-based instruction: the TDL body is walked instruction
// by instruction and each step becomes bit-level primitives within the
// placed slice.
func (g *gen) lut(in asm.Instr, def *tdl.Def, st *Stats) error {
	// Substitution of body names to module wires.
	g.locals = g.locals[:0]
	for i, p := range def.Inputs {
		g.locals = append(g.locals, local{p.Name, in.Args[i], p.Type})
	}
	attrs := in.Attrs
	for bi, body := range def.Body {
		dest := in.Dest
		if body.Dest != def.Output.Name {
			dest = g.fresh(in.Dest, "")
			g.w.Wire(dest, body.Type.Bits())
		}
		g.locals = append(g.locals, local{body.Dest, dest, body.Type})

		operandBits := 0
		if len(body.Args) > 0 {
			operandBits = g.local(body.Args[0]).typ.Bits()
		}
		args := g.args[:0]
		for _, a := range body.Args {
			args = append(args, g.local(a).wire)
		}
		g.args = args
		init := body.Attrs
		if body.Op.IsStateful() && len(attrs) > 0 {
			lanes := body.Type.Lanes()
			init = attrs[:lanes]
			attrs = attrs[lanes:]
		}
		if err := g.lutBody(body.Op, body.Type, dest, args, init, operandBits, st); err != nil {
			return fmt.Errorf("codegen: %s (body %d): %w", in.Dest, bi, err)
		}
	}
	return nil
}

// local returns the latest binding of a body name, or the zero binding.
func (g *gen) local(name string) local {
	for i := len(g.locals) - 1; i >= 0; i-- {
		if g.locals[i].name == name {
			return g.locals[i]
		}
	}
	return local{}
}

// lutBody emits primitives for one IR operation mapped onto a LUT slice.
func (g *gen) lutBody(op ir.Op, t ir.Type, dest string, args []string, init []int64,
	operandBits int, st *Stats) error {
	w := t.Bits()
	switch op {
	case ir.OpAnd, ir.OpOr, ir.OpXor:
		initVal := uint64(0x8)
		switch op {
		case ir.OpOr:
			initVal = 0xE
		case ir.OpXor:
			initVal = 0x6
		}
		for i := 0; i < w; i++ {
			g.lut2(dest, i, initVal, args[0], args[1], w)
			st.Luts++
		}
	case ir.OpNot:
		for i := 0; i < w; i++ {
			g.cell("LUT1", lutBels[i%8], 2, 0x1, dest, "_lut", i)
			g.bitConn("I0", args[0], i, w)
			g.bitConn("O", dest, i, w)
			g.w.EndInstance()
			st.Luts++
		}
	case ir.OpMux:
		// y[i] = c ? a[i] : b[i]: one LUT3 per bit.
		for i := 0; i < w; i++ {
			g.cell("LUT3", lutBels[i%8], 8, 0xCA, dest, "_lut", i)
			g.bitConn("I0", args[2], i, w) // b
			g.bitConn("I1", args[1], i, w) // a
			g.conn("I2", args[0])          // c
			g.bitConn("O", dest, i, w)
			g.w.EndInstance()
			st.Luts++
		}
	case ir.OpAdd, ir.OpSub:
		g.carryChain(op, dest, args[0], args[1], w, st)
	case ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpGt, ir.OpLe, ir.OpGe:
		if operandBits <= 0 {
			return fmt.Errorf("comparator %s has unknown operand width", dest)
		}
		g.comparator(op, dest, args[0], args[1], operandBits, st)
	case ir.OpReg:
		for i := 0; i < w; i++ {
			iv := int64(0)
			if len(init) == 1 {
				iv = init[0] >> uint(i%t.Width()) // splat handled per lane below
			}
			if len(init) == t.Lanes() {
				iv = init[i/t.Width()] >> uint(i%t.Width())
			}
			g.cell("FDRE", ffBels[i%8], 1, uint64(iv)&1, dest, "_ff", i)
			g.conn("C", g.clk)
			g.conn("CE", args[1])
			g.bitConn("D", args[0], i, w)
			g.bitConn("Q", dest, i, w)
			g.w.EndInstance()
			st.FFs++
		}
	case ir.OpMul:
		g.arrayMultiplier(dest, args[0], args[1], w, st)
	default:
		return fmt.Errorf("LUT expansion for %s not supported", op)
	}
	return nil
}

// carryChain emits the classic LUT+CARRY8 adder/subtractor: one propagate
// LUT per bit plus one CARRY8 per 8 bits.
func (g *gen) carryChain(op ir.Op, dest, a, b string, w int, st *Stats) {
	prop := g.fresh(dest, "_p")
	g.w.Wire(prop, w)
	initVal := uint64(0x6) // xor for add
	if op == ir.OpSub {
		initVal = 0x9 // xnor for sub
	}
	for i := 0; i < w; i++ {
		g.lut2(prop, i, initVal, a, b, w)
		st.Luts++
	}
	chains := (w + 7) / 8
	carry := g.fresh(dest, "_co")
	g.w.Wire(carry, chains)
	for c := 0; c < chains; c++ {
		hi := min((c+1)*8-1, w-1)
		g.w.Loc("SLICE", g.x, g.y)
		g.w.Instance("CARRY8")
		g.instanceName(dest, "_carry", c)
		g.sliceConn("S", prop, hi, c*8, w)
		g.sliceConn("DI", a, hi, c*8, w)
		g.carryIn(carry, c, uint64(subInit(op)))
		g.sliceConn("O", dest, hi, c*8, w)
		g.carryOut(carry, c)
		g.w.EndInstance()
		st.Carries++
	}
}

func subInit(op ir.Op) int {
	if op == ir.OpSub {
		return 1
	}
	return 0
}

// comparator emits per-bit LUTs plus a carry chain whose final carry-out is
// the comparison result.
func (g *gen) comparator(op ir.Op, dest, a, b string, w int, st *Stats) {
	prop := g.fresh(dest, "_cmp")
	g.w.Wire(prop, w)
	for i := 0; i < w; i++ {
		g.lut2(prop, i, 0x9, a, b, w) // xnor: equality per bit
		st.Luts++
	}
	chains := (w + 7) / 8
	carry := g.fresh(dest, "_cc")
	g.w.Wire(carry, chains)
	for c := 0; c < chains; c++ {
		hi := min((c+1)*8-1, w-1)
		g.w.Loc("SLICE", g.x, g.y)
		g.w.Instance("CARRY8")
		g.w.Param("MODE")
		g.w.Quoted(op.String())
		g.w.EndConn()
		g.instanceName(dest, "_cmp_carry", c)
		g.sliceConn("S", prop, hi, c*8, w)
		g.sliceConn("DI", b, hi, c*8, w)
		g.carryIn(carry, c, 1)
		g.carryOut(carry, c)
		g.w.EndInstance()
		st.Carries++
	}
	g.w.Assign(dest)
	g.w.Bit(carry, chains-1)
	g.w.EndAssign()
}

// arrayMultiplier emits a textbook LUT array multiplier: w*w partial
// product LUTs plus w-1 carry-chain adder rows.
func (g *gen) arrayMultiplier(dest, a, b string, w int, st *Stats) {
	// Partial product rows.
	rows := make([]string, w)
	for r := 0; r < w; r++ {
		row := g.freshRow(dest, "_pp", r)
		g.w.Wire(row, w)
		rows[r] = row
		suffix := "_pp" + strconv.Itoa(r) + "_"
		for i := 0; i < w; i++ {
			g.cell("LUT2", lutBels[i%8], 4, 0x8, dest, suffix, i)
			g.bitConn("I0", a, i, w)
			g.bitConn("I1", b, r, w)
			g.bitConn("O", row, i, w)
			g.w.EndInstance()
			st.Luts++
		}
	}
	// Accumulate rows with carry chains. Row r is shifted left by r; the
	// shift is wiring, so each adder row adds (acc >> r) to pp_r.
	acc := rows[0]
	for r := 1; r < w; r++ {
		shifted := g.freshRow(dest, "_sh", r)
		g.w.Wire(shifted, w)
		g.w.Assign(shifted)
		g.w.OpenConcat()
		g.w.Hex(1, 0)
		g.w.Comma()
		g.w.Range(acc, w-1, 1)
		g.w.CloseConcat()
		g.w.EndAssign()
		next := g.freshRow(dest, "_acc", r)
		if r == w-1 {
			next = dest
		} else {
			g.w.Wire(next, w)
		}
		g.carryChain(ir.OpAdd, next, shifted, rows[r], w, st)
		acc = next
	}
	if w == 1 {
		g.w.Assign(dest)
		g.w.Name(rows[0])
		g.w.EndAssign()
	}
}

// lut2 emits a single two-input LUT computing dest[i] = f(a[i], b[i]).
func (g *gen) lut2(dest string, i int, init uint64, a, b string, w int) {
	g.cell("LUT2", lutBels[i%8], 4, init, dest, "_lut", i)
	g.bitConn("I0", a, i, w)
	g.bitConn("I1", b, i, w)
	g.bitConn("O", dest, i, w)
	g.w.EndInstance()
}

// cell opens a one-parameter slice primitive on the current slice:
// LOC and BEL attributes, the INIT parameter as a sized literal, and the
// instance name base+suffix+i. The port connections follow.
func (g *gen) cell(module, bel string, initWidth int, init uint64, base, suffix string, i int) {
	g.w.Loc("SLICE", g.x, g.y)
	g.w.Attr("BEL", bel)
	g.w.Instance(module)
	g.w.Param("INIT")
	g.w.Hex(initWidth, init)
	g.w.EndConn()
	g.instanceName(base, suffix, i)
}

// conn connects a port to a whole net.
func (g *gen) conn(port, name string) {
	g.w.Conn(port)
	g.w.Name(name)
	g.w.EndConn()
}

// bitConn connects a port to bit i of a value, avoiding the index on
// 1-bit values.
func (g *gen) bitConn(port, name string, i, width int) {
	g.w.Conn(port)
	if width == 1 {
		g.w.Name(name)
	} else {
		g.w.Bit(name, i)
	}
	g.w.EndConn()
}

// sliceConn connects a port to bits hi..lo of a value.
func (g *gen) sliceConn(port, name string, hi, lo, width int) {
	g.w.Conn(port)
	switch {
	case width == 1:
		g.w.Name(name)
	case hi == lo:
		g.w.Bit(name, hi)
	default:
		g.w.Range(name, hi, lo)
	}
	g.w.EndConn()
}

// carryIn connects CI: the constant for the first CARRY8 of a chain, the
// previous one's carry-out after it.
func (g *gen) carryIn(carry string, c int, first uint64) {
	g.w.Conn("CI")
	if c == 0 {
		g.w.Hex(1, first)
	} else {
		g.w.Bit(carry, c-1)
	}
	g.w.EndConn()
}

// carryOut connects CO to bit c of the chain's carry wire.
func (g *gen) carryOut(carry string, c int) {
	g.w.Conn("CO")
	g.w.Bit(carry, c)
	g.w.EndConn()
}

// lutBels and ffBels name a slice's LUT and flip-flop basic elements
// A6LUT..H6LUT and AFF..HFF, by bit position modulo 8.
var (
	lutBels = [8]string{"A6LUT", "B6LUT", "C6LUT", "D6LUT", "E6LUT", "F6LUT", "G6LUT", "H6LUT"}
	ffBels  = [8]string{"AFF", "BFF", "CFF", "DFF", "EFF", "FFF", "GFF", "HFF"}
)
