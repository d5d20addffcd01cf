package codegen_test

// The reference emitter: Generate as it stood before codegen streamed
// its text, building a verilog.Module that Module.String then printed,
// kept verbatim (only renamed and package-qualified) as the oracle the
// streaming emitter must equal byte for byte, count for count and error
// for error.

import (
	"fmt"
	"strings"

	"reticle/internal/asm"
	"reticle/internal/codegen"
	"reticle/internal/ir"
	"reticle/internal/tdl"
	"reticle/internal/verilog"
)

// refGenerate emits a structural Verilog module for a placed assembly
// function. Every assembly instruction must have a resolved location.
func refGenerate(f *asm.Func, target *tdl.Target) (*verilog.Module, codegen.Stats, error) {
	var st codegen.Stats
	if err := asm.CheckTarget(f, target); err != nil {
		return nil, st, err
	}
	if !f.Resolved() {
		return nil, st, fmt.Errorf("codegen: function %s has unresolved locations; run placement first", f.Name)
	}

	g := &gen{
		f:      f,
		target: target,
		m:      &verilog.Module{Name: f.Name},
		types:  make(map[string]ir.Type),
	}
	for _, p := range f.Inputs {
		g.types[p.Name] = p.Type
	}
	for _, in := range f.Body {
		g.types[in.Dest] = in.Type
	}

	// Ports: clock first when any instruction is stateful.
	if g.needsClock() {
		g.m.AddPort(verilog.Input, "clk", 1)
	}
	for _, p := range f.Inputs {
		g.m.AddPort(verilog.Input, p.Name, p.Type.Bits())
	}
	for _, p := range f.Outputs {
		g.m.AddPort(verilog.Output, p.Name, p.Type.Bits())
	}

	// Wire declarations for every internal value.
	outNames := make(map[string]bool)
	for _, p := range f.Outputs {
		outNames[p.Name] = true
	}
	for _, in := range f.Body {
		if !outNames[in.Dest] {
			g.m.AddItem(verilog.Wire{Name: in.Dest, Width: in.Type.Bits()})
		}
	}

	for _, in := range f.Body {
		if in.IsWire() {
			if err := g.wire(in); err != nil {
				return nil, st, err
			}
			continue
		}
		if err := g.instr(in, &st); err != nil {
			return nil, st, err
		}
	}
	return g.m, st, nil
}

type gen struct {
	f      *asm.Func
	target *tdl.Target
	m      *verilog.Module
	types  map[string]ir.Type
	tmp    int
}

func (g *gen) needsClock() bool {
	for _, in := range g.f.Body {
		if in.IsWire() {
			continue
		}
		if def, ok := g.target.Lookup(in.Name); ok && def.Stateful() {
			return true
		}
	}
	return false
}

func (g *gen) fresh(prefix string) string {
	g.tmp++
	return fmt.Sprintf("_%s%d", prefix, g.tmp)
}

// wire lowers a wire instruction to a continuous assignment (§5.4: wire
// operations consume no area; they simply require different wiring).
func (g *gen) wire(in asm.Instr) error {
	irIn := in.WireIR()
	rhs, err := wireExpr(irIn, g.types)
	if err != nil {
		return fmt.Errorf("codegen: %s: %w", in.Dest, err)
	}
	g.m.AddItem(verilog.Assign{LHS: verilog.Ref(in.Dest), RHS: rhs})
	return nil
}

// wireExpr builds the Verilog expression for one wire instruction.
func wireExpr(in ir.Instr, types map[string]ir.Type) (verilog.Expr, error) {
	switch in.Op {
	case ir.OpConst:
		return constExpr(in.Type, in.Attrs), nil
	case ir.OpId:
		return verilog.Ref(in.Args[0]), nil
	case ir.OpSll:
		w := in.Type.Bits()
		k := int(in.Attrs[0])
		if k == 0 {
			return verilog.Ref(in.Args[0]), nil
		}
		return verilog.Concat{Parts: []verilog.Expr{
			verilog.Slice{X: verilog.Ref(in.Args[0]), Hi: w - k - 1, Lo: 0},
			verilog.HexLit(k, 0),
		}}, nil
	case ir.OpSrl:
		w := in.Type.Bits()
		k := int(in.Attrs[0])
		if k == 0 {
			return verilog.Ref(in.Args[0]), nil
		}
		return verilog.Concat{Parts: []verilog.Expr{
			verilog.HexLit(k, 0),
			verilog.Slice{X: verilog.Ref(in.Args[0]), Hi: w - 1, Lo: k},
		}}, nil
	case ir.OpSra:
		w := in.Type.Bits()
		k := int(in.Attrs[0])
		if k == 0 {
			return verilog.Ref(in.Args[0]), nil
		}
		return verilog.Concat{Parts: []verilog.Expr{
			verilog.Repeat{N: k, X: verilog.Index(verilog.Ref(in.Args[0]), w-1)},
			verilog.Slice{X: verilog.Ref(in.Args[0]), Hi: w - 1, Lo: k},
		}}, nil
	case ir.OpSlice:
		src := types[in.Args[0]]
		if src.IsVector() {
			lane := int(in.Attrs[0])
			w := src.Width()
			return verilog.Slice{X: verilog.Ref(in.Args[0]), Hi: (lane+1)*w - 1, Lo: lane * w}, nil
		}
		hi, lo := int(in.Attrs[0]), int(in.Attrs[1])
		if hi == lo {
			return verilog.Index(verilog.Ref(in.Args[0]), hi), nil
		}
		return verilog.Slice{X: verilog.Ref(in.Args[0]), Hi: hi, Lo: lo}, nil
	case ir.OpCat:
		// First operand supplies the low bits; Verilog concat is MSB-first.
		return verilog.Concat{Parts: []verilog.Expr{
			verilog.Ref(in.Args[1]),
			verilog.Ref(in.Args[0]),
		}}, nil
	}
	return nil, fmt.Errorf("not a wire operation: %s", in.Op)
}

// constExpr flattens a constant (splat or per-lane) into one sized literal.
// Lane 0 occupies the least significant bits.
func constExpr(t ir.Type, attrs []int64) verilog.Expr {
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
	return verilog.HexLit(t.Bits(), bits)
}

func maskBits(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// instr lowers one assembly instruction to primitives.
func (g *gen) instr(in asm.Instr, st *codegen.Stats) error {
	def, _ := g.target.Lookup(in.Name)
	x := int(in.Loc.X.Off)
	y := int(in.Loc.Y.Off)
	switch in.Loc.Prim {
	case ir.ResDsp:
		g.dsp(in, def, x, y, st)
		return nil
	case ir.ResLut:
		return g.lut(in, def, x, y, st)
	default:
		return fmt.Errorf("codegen: %s: primitive %s", in.Dest, in.Loc.Prim)
	}
}

// dsp emits one configured DSP slice instance. The instance carries the
// concrete DSP48E2-style configuration — OPMODE/ALUMODE multiplexer
// settings, SIMD mode, pipeline registers, cascade routing — derived from
// the instruction's TDL semantics: the handful of parameters (out of the
// ~96 the paper mentions, §2) that this operation set exercises. FUNC
// keeps the symbolic name for readability.
func (g *gen) dsp(in asm.Instr, def *tdl.Def, x, y int, st *codegen.Stats) {
	st.Dsps++
	cfg := dspConfig(in, def)
	inst := verilog.Instance{
		Attrs:  []verilog.Attr{locAttr("DSP48E2", x, y)},
		Module: "DSP48E2",
		Name:   "dsp_" + in.Dest,
		Params: []verilog.Connection{
			{Name: "FUNC", Expr: verilog.Str(def.Name)},
			{Name: "OPMODE", Expr: verilog.HexLit(9, cfg.opmode)},
			{Name: "ALUMODE", Expr: verilog.HexLit(4, cfg.alumode)},
			{Name: "USE_SIMD", Expr: verilog.Str(cfg.simd)},
			{Name: "PREG", Expr: verilog.Int(int64(cfg.preg))},
		},
	}
	if def.Stateful() {
		init := int64(0)
		if len(in.Attrs) > 0 {
			init = in.Attrs[0]
		}
		inst.Params = append(inst.Params,
			verilog.Connection{Name: "INIT", Expr: verilog.Int(init)})
		inst.Ports = append(inst.Ports,
			verilog.Connection{Name: "CLK", Expr: verilog.Ref("clk")})
	}
	dspPorts := []string{"A", "B", "C", "D"}
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
		inst.Ports = append(inst.Ports,
			verilog.Connection{Name: name, Expr: verilog.Ref(in.Args[i])})
	}
	out := "P"
	if cfg.chainOut {
		out = "PCOUT" // drives the cascade output instead of the default port
	}
	inst.Ports = append(inst.Ports,
		verilog.Connection{Name: out, Expr: verilog.Ref(in.Dest)})
	g.m.AddItem(inst)
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
func (g *gen) lut(in asm.Instr, def *tdl.Def, x, y int, st *codegen.Stats) error {
	// Substitution of body names to module wires.
	names := make(map[string]string, len(def.Inputs)+len(def.Body))
	localTypes := make(map[string]ir.Type)
	for i, p := range def.Inputs {
		names[p.Name] = in.Args[i]
		localTypes[p.Name] = p.Type
	}
	attrs := in.Attrs
	for bi, body := range def.Body {
		dest := in.Dest
		if body.Dest != def.Output.Name {
			dest = g.fresh(in.Dest)
			g.m.AddItem(verilog.Wire{Name: dest, Width: body.Type.Bits()})
		}
		names[body.Dest] = dest
		localTypes[body.Dest] = body.Type

		operandBits := 0
		if len(body.Args) > 0 {
			operandBits = localTypes[body.Args[0]].Bits()
		}
		args := make([]string, len(body.Args))
		for i, a := range body.Args {
			args[i] = names[a]
		}
		init := body.Attrs
		if body.Op.IsStateful() && len(attrs) > 0 {
			lanes := body.Type.Lanes()
			init = attrs[:lanes]
			attrs = attrs[lanes:]
		}
		if err := g.lutBody(body.Op, body.Type, dest, args, init, operandBits, x, y, bi, st); err != nil {
			return fmt.Errorf("codegen: %s (body %d): %w", in.Dest, bi, err)
		}
	}
	return nil
}

// lutBody emits primitives for one IR operation mapped onto a LUT slice.
func (g *gen) lutBody(op ir.Op, t ir.Type, dest string, args []string, init []int64,
	operandBits, x, y, seq int, st *codegen.Stats) error {
	w := t.Bits()
	loc := locAttr("SLICE", x, y)
	switch op {
	case ir.OpAnd, ir.OpOr, ir.OpXor:
		initVal := map[ir.Op]uint64{ir.OpAnd: 0x8, ir.OpOr: 0xE, ir.OpXor: 0x6}[op]
		for i := 0; i < w; i++ {
			g.m.AddItem(lut2(dest, i, initVal, args[0], args[1], loc, w))
			st.Luts++
		}
	case ir.OpNot:
		for i := 0; i < w; i++ {
			inst := verilog.Instance{
				Attrs:  []verilog.Attr{loc, belAttr(belName(i))},
				Module: "LUT1",
				Name:   fmt.Sprintf("%s_lut%d", dest, i),
				Params: []verilog.Connection{{Name: "INIT", Expr: verilog.HexLit(2, 0x1)}},
				Ports: []verilog.Connection{
					{Name: "I0", Expr: bitOf(args[0], i, w)},
					{Name: "O", Expr: bitOf(dest, i, w)},
				},
			}
			g.m.AddItem(inst)
			st.Luts++
		}
	case ir.OpMux:
		// y[i] = c ? a[i] : b[i]: one LUT3 per bit.
		for i := 0; i < w; i++ {
			inst := verilog.Instance{
				Attrs:  []verilog.Attr{loc, belAttr(belName(i))},
				Module: "LUT3",
				Name:   fmt.Sprintf("%s_lut%d", dest, i),
				Params: []verilog.Connection{{Name: "INIT", Expr: verilog.HexLit(8, 0xCA)}},
				Ports: []verilog.Connection{
					{Name: "I0", Expr: bitOf(args[2], i, w)}, // b
					{Name: "I1", Expr: bitOf(args[1], i, w)}, // a
					{Name: "I2", Expr: bitOf(args[0], 0, 1)}, // c
					{Name: "O", Expr: bitOf(dest, i, w)},
				},
			}
			g.m.AddItem(inst)
			st.Luts++
		}
	case ir.OpAdd, ir.OpSub:
		g.carryChain(op, dest, args[0], args[1], w, loc, st)
	case ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpGt, ir.OpLe, ir.OpGe:
		if operandBits <= 0 {
			return fmt.Errorf("comparator %s has unknown operand width", dest)
		}
		g.comparator(op, dest, args[0], args[1], operandBits, loc, st)
	case ir.OpReg:
		for i := 0; i < w; i++ {
			iv := int64(0)
			if len(init) == 1 {
				iv = init[0] >> uint(i%t.Width()) // splat handled per lane below
			}
			if len(init) == t.Lanes() {
				iv = init[i/t.Width()] >> uint(i%t.Width())
			}
			inst := verilog.Instance{
				Attrs:  []verilog.Attr{loc, belAttr(belFF(i))},
				Module: "FDRE",
				Name:   fmt.Sprintf("%s_ff%d", dest, i),
				Params: []verilog.Connection{{Name: "INIT", Expr: verilog.HexLit(1, uint64(iv)&1)}},
				Ports: []verilog.Connection{
					{Name: "C", Expr: verilog.Ref("clk")},
					{Name: "CE", Expr: bitOf(args[1], 0, 1)},
					{Name: "D", Expr: bitOf(args[0], i, w)},
					{Name: "Q", Expr: bitOf(dest, i, w)},
				},
			}
			g.m.AddItem(inst)
			st.FFs++
		}
	case ir.OpMul:
		g.arrayMultiplier(dest, args[0], args[1], w, loc, st)
	default:
		return fmt.Errorf("LUT expansion for %s not supported", op)
	}
	_ = seq
	return nil
}

// carryChain emits the classic LUT+CARRY8 adder/subtractor: one propagate
// LUT per bit plus one CARRY8 per 8 bits.
func (g *gen) carryChain(op ir.Op, dest, a, b string, w int, loc verilog.Attr, st *codegen.Stats) {
	prop := g.fresh(dest + "_p")
	g.m.AddItem(verilog.Wire{Name: prop, Width: w})
	initVal := uint64(0x6) // xor for add
	if op == ir.OpSub {
		initVal = 0x9 // xnor for sub
	}
	for i := 0; i < w; i++ {
		g.m.AddItem(lut2(prop, i, initVal, a, b, loc, w))
		st.Luts++
	}
	chains := (w + 7) / 8
	carry := g.fresh(dest + "_co")
	g.m.AddItem(verilog.Wire{Name: carry, Width: chains})
	for c := 0; c < chains; c++ {
		hi := (c+1)*8 - 1
		if hi >= w {
			hi = w - 1
		}
		ci := verilog.Expr(verilog.HexLit(1, uint64(subInit(op))))
		if c > 0 {
			ci = verilog.Index(verilog.Ref(carry), c-1)
		}
		inst := verilog.Instance{
			Attrs:  []verilog.Attr{loc},
			Module: "CARRY8",
			Name:   fmt.Sprintf("%s_carry%d", dest, c),
			Ports: []verilog.Connection{
				{Name: "S", Expr: sliceOf(prop, hi, c*8, w)},
				{Name: "DI", Expr: sliceOf(a, hi, c*8, w)},
				{Name: "CI", Expr: ci},
				{Name: "O", Expr: sliceOf(dest, hi, c*8, w)},
				{Name: "CO", Expr: verilog.Index(verilog.Ref(carry), c)},
			},
		}
		g.m.AddItem(inst)
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
func (g *gen) comparator(op ir.Op, dest, a, b string, w int, loc verilog.Attr, st *codegen.Stats) {
	prop := g.fresh(dest + "_cmp")
	g.m.AddItem(verilog.Wire{Name: prop, Width: w})
	for i := 0; i < w; i++ {
		g.m.AddItem(lut2(prop, i, 0x9, a, b, loc, w)) // xnor: equality per bit
		st.Luts++
	}
	chains := (w + 7) / 8
	carry := g.fresh(dest + "_cc")
	g.m.AddItem(verilog.Wire{Name: carry, Width: chains})
	for c := 0; c < chains; c++ {
		hi := (c+1)*8 - 1
		if hi >= w {
			hi = w - 1
		}
		ci := verilog.Expr(verilog.HexLit(1, 1))
		if c > 0 {
			ci = verilog.Index(verilog.Ref(carry), c-1)
		}
		inst := verilog.Instance{
			Attrs:  []verilog.Attr{loc},
			Module: "CARRY8",
			Name:   fmt.Sprintf("%s_cmp_carry%d", dest, c),
			Params: []verilog.Connection{{Name: "MODE", Expr: verilog.Str(op.String())}},
			Ports: []verilog.Connection{
				{Name: "S", Expr: sliceOf(prop, hi, c*8, w)},
				{Name: "DI", Expr: sliceOf(b, hi, c*8, w)},
				{Name: "CI", Expr: ci},
				{Name: "CO", Expr: verilog.Index(verilog.Ref(carry), c)},
			},
		}
		g.m.AddItem(inst)
		st.Carries++
	}
	g.m.AddItem(verilog.Assign{
		LHS: verilog.Ref(dest),
		RHS: verilog.Index(verilog.Ref(carry), chains-1),
	})
}

// arrayMultiplier emits a textbook LUT array multiplier: w*w partial
// product LUTs plus w-1 carry-chain adder rows.
func (g *gen) arrayMultiplier(dest, a, b string, w int, loc verilog.Attr, st *codegen.Stats) {
	// Partial product rows.
	rows := make([]string, w)
	for r := 0; r < w; r++ {
		row := g.fresh(fmt.Sprintf("%s_pp%d", dest, r))
		g.m.AddItem(verilog.Wire{Name: row, Width: w})
		rows[r] = row
		for i := 0; i < w; i++ {
			inst := verilog.Instance{
				Attrs:  []verilog.Attr{loc, belAttr(belName(i))},
				Module: "LUT2",
				Name:   fmt.Sprintf("%s_pp%d_%d", dest, r, i),
				Params: []verilog.Connection{{Name: "INIT", Expr: verilog.HexLit(4, 0x8)}},
				Ports: []verilog.Connection{
					{Name: "I0", Expr: bitOf(a, i, w)},
					{Name: "I1", Expr: bitOf(b, r, w)},
					{Name: "O", Expr: bitOf(row, i, w)},
				},
			}
			g.m.AddItem(inst)
			st.Luts++
		}
	}
	// Accumulate rows with carry chains. Row r is shifted left by r; the
	// shift is wiring, so each adder row adds (acc >> r) to pp_r.
	acc := rows[0]
	for r := 1; r < w; r++ {
		shifted := g.fresh(fmt.Sprintf("%s_sh%d", dest, r))
		g.m.AddItem(verilog.Wire{Name: shifted, Width: w})
		g.m.AddItem(verilog.Assign{
			LHS: verilog.Ref(shifted),
			RHS: verilog.Concat{Parts: []verilog.Expr{
				verilog.HexLit(1, 0),
				verilog.Slice{X: verilog.Ref(acc), Hi: w - 1, Lo: 1},
			}},
		})
		next := g.fresh(fmt.Sprintf("%s_acc%d", dest, r))
		if r == w-1 {
			next = dest
		} else {
			g.m.AddItem(verilog.Wire{Name: next, Width: w})
		}
		g.carryChain(ir.OpAdd, next, shifted, rows[r], w, loc, st)
		acc = next
	}
	if w == 1 {
		g.m.AddItem(verilog.Assign{LHS: verilog.Ref(dest), RHS: verilog.Ref(rows[0])})
	}
}

// lut2 builds a single two-input LUT computing dest[i] = f(a[i], b[i]).
func lut2(dest string, i int, init uint64, a, b string, loc verilog.Attr, w int) verilog.Instance {
	return verilog.Instance{
		Attrs:  []verilog.Attr{loc, belAttr(belName(i))},
		Module: "LUT2",
		Name:   fmt.Sprintf("%s_lut%d", dest, i),
		Params: []verilog.Connection{{Name: "INIT", Expr: verilog.HexLit(4, init)}},
		Ports: []verilog.Connection{
			{Name: "I0", Expr: bitOf(a, i, w)},
			{Name: "I1", Expr: bitOf(b, i, w)},
			{Name: "O", Expr: bitOf(dest, i, w)},
		},
	}
}

// bitOf references bit i of a value, avoiding the index on 1-bit values.
func bitOf(name string, i, width int) verilog.Expr {
	if width == 1 {
		return verilog.Ref(name)
	}
	return verilog.Index(verilog.Ref(name), i)
}

func sliceOf(name string, hi, lo, width int) verilog.Expr {
	if width == 1 {
		return verilog.Ref(name)
	}
	if hi == lo {
		return verilog.Index(verilog.Ref(name), hi)
	}
	return verilog.Slice{X: verilog.Ref(name), Hi: hi, Lo: lo}
}

// belName maps bit position to the slice's LUT basic elements A6LUT..H6LUT.
func belName(i int) string {
	return string(rune('A'+i%8)) + "6LUT"
}

// belFF maps bit position to flip-flop basic elements AFF..HFF.
func belFF(i int) string {
	return string(rune('A'+i%8)) + "FF"
}

// locAttr and belAttr are the attribute constructors the reference used
// from internal/verilog, which the streaming emitter made unnecessary.
func locAttr(kind string, x, y int) verilog.Attr {
	return verilog.Attr{Key: "LOC", Value: fmt.Sprintf("%s_X%dY%d", kind, x, y)}
}

func belAttr(bel string) verilog.Attr { return verilog.Attr{Key: "BEL", Value: bel} }
