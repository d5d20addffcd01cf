// Package vfront is a behavioral Verilog front end: it converts the
// behavioral subset (what the §7 baseline backends emit, and what the
// Fig. 3 style of hand-written code looks like) into intermediate-language
// functions.
//
// This closes the evaluation's methodological loop. The baselines are
// produced as behavioral Verilog text (package behav); this front end
// parses that text back into a netlist-level program for the simulated
// traditional toolchain (package vivado). Crucially, behavioral Verilog
// has no vector types — a vectorized Reticle program arrives here as flat
// bit vectors and per-lane scalar assignments, which is exactly why
// behavioral toolchains cannot recover SIMD DSP configurations (§7.2):
// after this round trip the lane structure is gone, structurally.
package vfront

import (
	"fmt"
	"sort"

	"reticle/internal/ir"
	"reticle/internal/verilog"
)

// Parse converts behavioral Verilog source into an IR function.
func Parse(src string) (*ir.Func, error) {
	m, err := verilog.ParseModule(src)
	if err != nil {
		return nil, err
	}
	return FromModule(m)
}

// FromModule converts a parsed behavioral module into an IR function.
func FromModule(m *verilog.Module) (*ir.Func, error) {
	c := &conv{
		m:       m,
		types:   map[string]ir.Type{},
		fn:      &ir.Func{Name: m.Name},
		partial: map[string][]part{},
		regInit: map[string]int64{},
	}
	return c.run()
}

type part struct {
	hi, lo int
	value  string // IR value holding these bits
}

type conv struct {
	m     *verilog.Module
	fn    *ir.Func
	types map[string]ir.Type
	tmp   int

	// partial collects sliced assignments (assign y[7:0] = ...) to be
	// reassembled into whole values.
	partial map[string][]part
	regInit map[string]int64
	regs    map[string]bool
}

func (c *conv) fresh() string {
	c.tmp++
	return fmt.Sprintf("_f%d", c.tmp)
}

func typeOfWidth(w int) (ir.Type, error) {
	if w == 1 {
		return ir.Bool(), nil
	}
	return ir.NewInt(w)
}

func (c *conv) run() (*ir.Func, error) {
	c.regs = map[string]bool{}
	outputs := map[string]bool{}
	for _, p := range c.m.Ports {
		if p.Name == "clk" && p.Dir == verilog.Input {
			continue // the synchronous model hides the clock (§4.1)
		}
		t, err := typeOfWidth(p.Width)
		if err != nil {
			return nil, err
		}
		c.types[p.Name] = t
		if p.Dir == verilog.Input {
			c.fn.Inputs = append(c.fn.Inputs, ir.Port{Name: p.Name, Type: t})
		} else {
			c.fn.Outputs = append(c.fn.Outputs, ir.Port{Name: p.Name, Type: t})
			outputs[p.Name] = true
		}
	}

	// First pass: declarations.
	for _, item := range c.m.Items {
		switch it := item.(type) {
		case verilog.Wire:
			t, err := typeOfWidth(it.Width)
			if err != nil {
				return nil, err
			}
			c.types[it.Name] = t
		case verilog.Reg:
			t, err := typeOfWidth(it.Width)
			if err != nil {
				return nil, err
			}
			c.types[it.Name] = t
			c.regs[it.Name] = true
			if it.HasInit {
				c.regInit[it.Name] = it.Init
			}
		}
	}

	// Second pass: behavior.
	for _, item := range c.m.Items {
		switch it := item.(type) {
		case verilog.Assign:
			if err := c.assign(it); err != nil {
				return nil, err
			}
		case verilog.AlwaysFF:
			for _, s := range it.Stmts {
				if err := c.ffStmt(s); err != nil {
					return nil, err
				}
			}
		case verilog.Wire, verilog.Reg:
			// declared in the first pass
		case verilog.Instance:
			return nil, fmt.Errorf("vfront: %s: structural instances are not behavioral code", c.m.Name)
		default:
			return nil, fmt.Errorf("vfront: %s: unsupported item %T", c.m.Name, item)
		}
	}

	// Reassemble sliced assignments.
	if err := c.mergePartials(); err != nil {
		return nil, err
	}
	if err := ir.Check(c.fn); err != nil {
		return nil, fmt.Errorf("vfront: converted module is invalid: %w", err)
	}
	if _, _, err := ir.CheckWellFormed(c.fn); err != nil {
		return nil, fmt.Errorf("vfront: converted module is ill-formed: %w", err)
	}
	return c.fn, nil
}

// assign lowers one continuous assignment.
func (c *conv) assign(a verilog.Assign) error {
	switch lhs := a.LHS.(type) {
	case verilog.Ref:
		name := string(lhs)
		t, ok := c.types[name]
		if !ok {
			return fmt.Errorf("vfront: assign to undeclared %q", name)
		}
		val, err := c.expr(a.RHS, t)
		if err != nil {
			return err
		}
		c.emit(ir.Instr{Dest: name, Type: t, Op: ir.OpId, Args: []string{val}})
		return nil
	case verilog.Slice:
		ref, ok := lhs.X.(verilog.Ref)
		if !ok {
			return fmt.Errorf("vfront: unsupported assignment target %s", verilog.ExprString(a.LHS))
		}
		width := lhs.Hi - lhs.Lo + 1
		t, err := typeOfWidth(width)
		if err != nil {
			return err
		}
		val, err := c.expr(a.RHS, t)
		if err != nil {
			return err
		}
		c.partial[string(ref)] = append(c.partial[string(ref)],
			part{hi: lhs.Hi, lo: lhs.Lo, value: val})
		return nil
	default:
		return fmt.Errorf("vfront: unsupported assignment target %s", verilog.ExprString(a.LHS))
	}
}

// mergePartials concatenates sliced assignments into their whole values.
func (c *conv) mergePartials() error {
	var names []string
	for name := range c.partial {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		parts := c.partial[name]
		t, ok := c.types[name]
		if !ok {
			return fmt.Errorf("vfront: sliced assign to undeclared %q", name)
		}
		sort.Slice(parts, func(i, j int) bool { return parts[i].lo < parts[j].lo })
		expect := 0
		cur := ""
		curBits := 0
		for _, p := range parts {
			if p.lo != expect {
				return fmt.Errorf("vfront: %s: bits [%d:%d] unassigned", name, p.lo-1, expect)
			}
			if cur == "" {
				cur = p.value
			} else {
				nt, err := typeOfWidth(curBits + (p.hi - p.lo + 1))
				if err != nil {
					return err
				}
				dest := c.fresh()
				c.emit(ir.Instr{Dest: dest, Type: nt, Op: ir.OpCat, Args: []string{cur, p.value}})
				cur = dest
			}
			curBits += p.hi - p.lo + 1
			expect = p.hi + 1
		}
		if expect != t.Bits() {
			return fmt.Errorf("vfront: %s: bits [%d:%d] unassigned", name, t.Bits()-1, expect)
		}
		c.emit(ir.Instr{Dest: name, Type: t, Op: ir.OpId, Args: []string{cur}})
	}
	return nil
}

// ffStmt lowers one clocked statement: "if (en) r <= expr" or an
// unconditional "r <= expr".
func (c *conv) ffStmt(s verilog.Stmt) error {
	switch st := s.(type) {
	case verilog.If:
		if len(st.Then) == 0 {
			return fmt.Errorf("vfront: clocked if with an empty body unsupported")
		}
		cond, err := c.expr(st.Cond, ir.Bool())
		if err != nil {
			return err
		}
		for _, inner := range st.Then {
			nb, ok := inner.(verilog.NonBlocking)
			if !ok {
				return fmt.Errorf("vfront: only non-blocking assignments in clocked blocks")
			}
			if err := c.register(nb, cond); err != nil {
				return err
			}
		}
		return nil
	case verilog.NonBlocking:
		one := c.fresh()
		c.emit(ir.Instr{Dest: one, Type: ir.Bool(), Op: ir.OpConst, Attrs: []int64{1}})
		return c.register(st, one)
	default:
		return fmt.Errorf("vfront: unsupported clocked statement %T", s)
	}
}

// register lowers "target <= rhs" under an enable.
func (c *conv) register(nb verilog.NonBlocking, enable string) error {
	ref, ok := nb.LHS.(verilog.Ref)
	if !ok {
		return fmt.Errorf("vfront: register target must be a name")
	}
	name := string(ref)
	t, ok := c.types[name]
	if !ok {
		return fmt.Errorf("vfront: register %q undeclared", name)
	}
	if !c.regs[name] {
		return fmt.Errorf("vfront: clocked assignment to non-reg %q", name)
	}
	val, err := c.expr(nb.RHS, t)
	if err != nil {
		return err
	}
	c.emit(ir.Instr{
		Dest: name, Type: t, Op: ir.OpReg,
		Attrs: []int64{c.regInit[name]},
		Args:  []string{val, enable},
	})
	return nil
}

func (c *conv) emit(in ir.Instr) {
	c.fn.Body = append(c.fn.Body, in)
}

// value materializes an expression as a named IR value of type want.
func (c *conv) value(t ir.Type, in ir.Instr) string {
	in.Dest = c.fresh()
	in.Type = t
	c.emit(in)
	return in.Dest
}

// expr lowers a Verilog expression to ANF, returning the value name.
// want is the expected result type (behavioral code is width-contextual).
func (c *conv) expr(e verilog.Expr, want ir.Type) (string, error) {
	switch ex := e.(type) {
	case verilog.Ref:
		name := string(ex)
		t, ok := c.types[name]
		if !ok {
			return "", fmt.Errorf("vfront: undeclared %q", name)
		}
		if t != want {
			return "", fmt.Errorf("vfront: %q has width %d, context wants %d",
				name, t.Bits(), want.Bits())
		}
		return name, nil
	case verilog.Lit:
		return c.value(want, ir.Instr{Op: ir.OpConst, Attrs: []int64{int64(ex.Value)}}), nil
	case verilog.Int:
		return c.value(want, ir.Instr{Op: ir.OpConst, Attrs: []int64{int64(ex)}}), nil
	case verilog.Unary:
		switch ex.Op {
		case "~":
			a, err := c.expr(ex.X, want)
			if err != nil {
				return "", err
			}
			return c.value(want, ir.Instr{Op: ir.OpNot, Args: []string{a}}), nil
		case "$signed":
			// IR arithmetic and comparisons are signed already.
			return c.expr(ex.X, want)
		default:
			return "", fmt.Errorf("vfront: unsupported unary %q", ex.Op)
		}
	case verilog.Binary:
		return c.binary(ex, want)
	case verilog.Ternary:
		cond, err := c.expr(ex.Cond, ir.Bool())
		if err != nil {
			return "", err
		}
		a, err := c.expr(ex.Then, want)
		if err != nil {
			return "", err
		}
		b, err := c.expr(ex.Else, want)
		if err != nil {
			return "", err
		}
		return c.value(want, ir.Instr{Op: ir.OpMux, Args: []string{cond, a, b}}), nil
	case verilog.Slice:
		ref, ok := ex.X.(verilog.Ref)
		if !ok {
			return "", fmt.Errorf("vfront: slices of compound expressions unsupported")
		}
		src, ok := c.types[string(ref)]
		if !ok {
			return "", fmt.Errorf("vfront: undeclared %q", string(ref))
		}
		width := ex.Hi - ex.Lo + 1
		if width != want.Bits() {
			return "", fmt.Errorf("vfront: slice [%d:%d] is %d bits, context wants %d",
				ex.Hi, ex.Lo, width, want.Bits())
		}
		_ = src
		return c.value(want, ir.Instr{Op: ir.OpSlice,
			Attrs: []int64{int64(ex.Hi), int64(ex.Lo)}, Args: []string{string(ref)}}), nil
	case verilog.Concat:
		// Verilog concat is MSB first; IR cat takes low bits first.
		total := want.Bits()
		var valueNames []string
		var widths []int
		used := 0
		for i := len(ex.Parts) - 1; i >= 0; i-- { // LSB-first
			p := ex.Parts[i]
			w, err := c.exprWidth(p, total-used)
			if err != nil {
				return "", err
			}
			t, err := typeOfWidth(w)
			if err != nil {
				return "", err
			}
			v, err := c.expr(p, t)
			if err != nil {
				return "", err
			}
			valueNames = append(valueNames, v)
			widths = append(widths, w)
			used += w
		}
		if used != total {
			return "", fmt.Errorf("vfront: concat is %d bits, context wants %d", used, total)
		}
		cur := valueNames[0]
		curW := widths[0]
		for i := 1; i < len(valueNames); i++ {
			curW += widths[i]
			t, err := typeOfWidth(curW)
			if err != nil {
				return "", err
			}
			cur = c.value(t, ir.Instr{Op: ir.OpCat, Args: []string{cur, valueNames[i]}})
		}
		return cur, nil
	case verilog.Repeat:
		// {n{bit}}: replicate a 1-bit expression.
		bit, err := c.expr(ex.X, ir.Bool())
		if err != nil {
			return "", err
		}
		cur := bit
		curW := 1
		for i := 1; i < ex.N; i++ {
			curW++
			t, err := typeOfWidth(curW)
			if err != nil {
				return "", err
			}
			cur = c.value(t, ir.Instr{Op: ir.OpCat, Args: []string{cur, bit}})
		}
		if curW != want.Bits() {
			return "", fmt.Errorf("vfront: repeat is %d bits, context wants %d", curW, want.Bits())
		}
		return cur, nil
	default:
		return "", fmt.Errorf("vfront: unsupported expression %s", verilog.ExprString(e))
	}
}

func (c *conv) binary(ex verilog.Binary, want ir.Type) (string, error) {
	arith := map[string]ir.Op{
		"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul,
		"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor,
	}
	cmp := map[string]ir.Op{
		"==": ir.OpEq, "!=": ir.OpNeq,
		"<": ir.OpLt, ">": ir.OpGt, "<=": ir.OpLe, ">=": ir.OpGe,
	}
	shift := map[string]ir.Op{
		"<<": ir.OpSll, ">>": ir.OpSrl, ">>>": ir.OpSra,
	}
	if op, ok := arith[ex.Op]; ok {
		a, err := c.expr(ex.A, want)
		if err != nil {
			return "", err
		}
		b, err := c.expr(ex.B, want)
		if err != nil {
			return "", err
		}
		return c.value(want, ir.Instr{Op: op, Args: []string{a, b}}), nil
	}
	if op, ok := cmp[ex.Op]; ok {
		if !want.IsBool() {
			return "", fmt.Errorf("vfront: comparison in non-bool context")
		}
		wa, err := c.exprWidth(ex.A, 0)
		if err != nil {
			return "", err
		}
		t, err := typeOfWidth(wa)
		if err != nil {
			return "", err
		}
		// IR comparisons need integer operands.
		if t.IsBool() {
			return "", fmt.Errorf("vfront: 1-bit comparisons unsupported; use logic ops")
		}
		a, err := c.expr(ex.A, t)
		if err != nil {
			return "", err
		}
		b, err := c.expr(ex.B, t)
		if err != nil {
			return "", err
		}
		return c.value(ir.Bool(), ir.Instr{Op: op, Args: []string{a, b}}), nil
	}
	if op, ok := shift[ex.Op]; ok {
		amount, okAmt := ex.B.(verilog.Int)
		if !okAmt {
			return "", fmt.Errorf("vfront: only static shift amounts supported")
		}
		a, err := c.expr(ex.A, want)
		if err != nil {
			return "", err
		}
		return c.value(want, ir.Instr{Op: op,
			Attrs: []int64{int64(amount)}, Args: []string{a}}), nil
	}
	return "", fmt.Errorf("vfront: unsupported operator %q", ex.Op)
}

// exprWidth infers the bit width of an expression; fallback is used for
// literals whose width is contextual.
func (c *conv) exprWidth(e verilog.Expr, fallback int) (int, error) {
	switch ex := e.(type) {
	case verilog.Ref:
		t, ok := c.types[string(ex)]
		if !ok {
			return 0, fmt.Errorf("vfront: undeclared %q", string(ex))
		}
		return t.Bits(), nil
	case verilog.Lit:
		if ex.Width > 0 {
			return ex.Width, nil
		}
		return fallback, nil
	case verilog.Int:
		if fallback <= 0 {
			return 0, fmt.Errorf("vfront: cannot infer width of bare integer")
		}
		return fallback, nil
	case verilog.Unary:
		return c.exprWidth(ex.X, fallback)
	case verilog.Binary:
		if _, cmp := map[string]bool{"==": true, "!=": true, "<": true,
			">": true, "<=": true, ">=": true}[ex.Op]; cmp {
			return 1, nil
		}
		wa, errA := c.exprWidth(ex.A, fallback)
		if errA == nil && wa > 0 {
			return wa, nil
		}
		return c.exprWidth(ex.B, fallback)
	case verilog.Ternary:
		return c.exprWidth(ex.Then, fallback)
	case verilog.Slice:
		return ex.Hi - ex.Lo + 1, nil
	case verilog.Repeat:
		return ex.N, nil
	case verilog.Concat:
		total := 0
		for _, p := range ex.Parts {
			w, err := c.exprWidth(p, 0)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	default:
		return 0, fmt.Errorf("vfront: cannot infer width of %s", verilog.ExprString(e))
	}
}
