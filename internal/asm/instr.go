package asm

import (
	"strconv"

	"reticle/internal/ir"
)

// Instr is one assembly-program instruction. Assembly programs mix two
// instruction kinds (Fig. 5b):
//
//   - wire instructions, identical to the intermediate language's
//     (Op is the wire operation, Name is empty, Loc is unused); and
//   - assembly instructions, whose operation Name refers to a target
//     definition and which carry a location (Op is ir.OpInvalid).
type Instr struct {
	Dest  string
	Type  ir.Type
	Op    ir.Op  // wire operation, or ir.OpInvalid for assembly instructions
	Name  string // assembly operation name, or "" for wire instructions
	Attrs []int64
	Args  []string
	Loc   Loc
}

// IsWire reports whether the instruction is a wire instruction.
func (in Instr) IsWire() bool { return in.Op != ir.OpInvalid }

// String renders the instruction in source syntax.
func (in Instr) String() string { return string(in.appendTo(nil)) }

// appendTo appends the instruction in source syntax. The printer is
// fmt-free: the pipeline prints every stage's assembly for its key and
// payload, so this runs once per instruction per stage.
func (in Instr) appendTo(b []byte) []byte {
	b = append(b, in.Dest...)
	b = append(b, ':')
	b = in.Type.AppendTo(b)
	b = append(b, " = "...)
	if in.IsWire() {
		b = append(b, in.Op.String()...)
	} else {
		b = append(b, in.Name...)
	}
	if len(in.Attrs) > 0 {
		b = append(b, '[')
		for i, a := range in.Attrs {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = strconv.AppendInt(b, a, 10)
		}
		b = append(b, ']')
	}
	if !(in.IsWire() && in.Op == ir.OpConst) {
		b = append(b, '(')
		for i, a := range in.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, a...)
		}
		b = append(b, ')')
	}
	if !in.IsWire() {
		b = append(b, " @"...)
		b = in.Loc.appendTo(b)
	}
	return append(b, ';')
}

// WireInstr wraps an IR wire instruction as an assembly-program instruction.
func WireInstr(in ir.Instr) Instr {
	if !in.Op.IsWire() {
		panic("asm: WireInstr on compute op " + in.Op.String())
	}
	return Instr{
		Dest:  in.Dest,
		Type:  in.Type,
		Op:    in.Op,
		Attrs: append([]int64(nil), in.Attrs...),
		Args:  append([]string(nil), in.Args...),
	}
}

// WireIR converts a wire instruction back to its IR form.
func (in Instr) WireIR() ir.Instr {
	if !in.IsWire() {
		panic("asm: WireIR on assembly instruction " + in.Name)
	}
	return ir.Instr{
		Dest:  in.Dest,
		Type:  in.Type,
		Op:    in.Op,
		Attrs: append([]int64(nil), in.Attrs...),
		Args:  append([]string(nil), in.Args...),
		Res:   ir.ResAny,
	}
}

// Func is an assembly-language function: same shape as an IR function,
// with assembly instructions in place of compute instructions.
type Func struct {
	Name    string
	Inputs  []ir.Port
	Outputs []ir.Port
	Body    []Instr
}

// Clone returns a deep copy of the function. The copies' Attrs and Args
// are carved from one slab each, capacity-clamped so that an append to
// one instruction's slice cannot reach its neighbour's; an empty one is
// nil, as append([]T(nil), ...) leaves it.
func (f *Func) Clone() *Func {
	out := &Func{
		Name:    f.Name,
		Inputs:  append([]ir.Port(nil), f.Inputs...),
		Outputs: append([]ir.Port(nil), f.Outputs...),
		Body:    make([]Instr, len(f.Body)),
	}
	nattrs, nargs := 0, 0
	for i := range f.Body {
		nattrs += len(f.Body[i].Attrs)
		nargs += len(f.Body[i].Args)
	}
	attrs, args := make([]int64, 0, nattrs), make([]string, 0, nargs)
	for i := range f.Body {
		in := &out.Body[i]
		*in = f.Body[i]
		in.Attrs, attrs = carve(attrs, in.Attrs)
		in.Args, args = carve(args, in.Args)
	}
	return out
}

// carve copies src onto the end of slab and returns the copy, clamped to
// its length, with the slab after it; an empty src gives nil.
func carve[T any](slab, src []T) ([]T, []T) {
	if len(src) == 0 {
		return nil, slab
	}
	n := len(slab)
	slab = append(slab, src...)
	return slab[n:len(slab):len(slab)], slab
}

// String renders the function in source syntax, appending into one buffer
// sized for the body up front.
func (f *Func) String() string {
	b := make([]byte, 0, 64+16*(len(f.Inputs)+len(f.Outputs))+80*len(f.Body))
	b = append(b, "def "...)
	b = append(b, f.Name...)
	b = append(b, '(')
	b = ir.AppendPorts(b, f.Inputs)
	b = append(b, ") -> ("...)
	b = ir.AppendPorts(b, f.Outputs)
	b = append(b, ") {\n"...)
	for _, in := range f.Body {
		b = append(b, "    "...)
		b = in.appendTo(b)
		b = append(b, '\n')
	}
	b = append(b, "}\n"...)
	return string(b)
}

// ValueType returns the declared type of value v, numbered as in
// ir.Symbols: input v, or instruction v-len(f.Inputs).
func (f *Func) ValueType(v int32) ir.Type {
	if nin := len(f.Inputs); int(v) >= nin {
		return f.Body[int(v)-nin].Type
	}
	return f.Inputs[v].Type
}

// AsmCount returns the number of assembly (non-wire) instructions.
func (f *Func) AsmCount() int {
	n := 0
	for _, in := range f.Body {
		if !in.IsWire() {
			n++
		}
	}
	return n
}

// Resolved reports whether every assembly instruction has literal
// coordinates (the output of the placement stage).
func (f *Func) Resolved() bool {
	for _, in := range f.Body {
		if !in.IsWire() && !in.Loc.Resolved() {
			return false
		}
	}
	return true
}

// CoordVars returns the set of coordinate variable names used in the body.
func (f *Func) CoordVars() map[string]bool {
	vars := make(map[string]bool)
	for _, in := range f.Body {
		if in.IsWire() {
			continue
		}
		for _, c := range []Coord{in.Loc.X, in.Loc.Y} {
			if c.Var != "" {
				vars[c.Var] = true
			}
		}
	}
	return vars
}
