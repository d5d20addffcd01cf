package ir

import "fmt"

// Builder constructs functions programmatically. It hands out fresh
// temporary names and accumulates instructions; Build runs Check before
// returning. Generators (tensoradd, tensordot, fsm) and examples use it
// instead of string templates.
type Builder struct {
	fn   Func
	next int
	err  error
}

// NewBuilder starts a function with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{fn: Func{Name: name}}
}

// Input declares a typed input port and returns its name.
func (b *Builder) Input(name string, t Type) string {
	b.fn.Inputs = append(b.fn.Inputs, Port{Name: name, Type: t})
	return name
}

// Output declares a typed output port. The named variable must be defined
// by the time Build is called.
func (b *Builder) Output(name string, t Type) {
	b.fn.Outputs = append(b.fn.Outputs, Port{Name: name, Type: t})
}

// Fresh returns a new unique temporary name with the given prefix.
func (b *Builder) Fresh(prefix string) string {
	name := fmt.Sprintf("%s%d", prefix, b.next)
	b.next++
	return name
}

// Instr appends a fully specified instruction with a fresh destination and
// returns the destination name.
func (b *Builder) Instr(t Type, op Op, attrs []int64, args []string, res Resource) string {
	dest := b.Fresh("t")
	b.InstrNamed(dest, t, op, attrs, args, res)
	return dest
}

// InstrNamed appends an instruction with an explicit destination name.
func (b *Builder) InstrNamed(dest string, t Type, op Op, attrs []int64, args []string, res Resource) {
	b.fn.Body = append(b.fn.Body, Instr{
		Dest: dest, Type: t, Op: op,
		Attrs: append([]int64(nil), attrs...),
		Args:  append([]string(nil), args...),
		Res:   res,
	})
}

// Const appends a constant wire instruction.
func (b *Builder) Const(t Type, vals ...int64) string {
	return b.Instr(t, OpConst, vals, nil, ResAny)
}

// Add appends an add compute instruction with resource annotation res.
func (b *Builder) Add(t Type, a, x string, res Resource) string {
	return b.Instr(t, OpAdd, nil, []string{a, x}, res)
}

// Sub appends a sub compute instruction.
func (b *Builder) Sub(t Type, a, x string, res Resource) string {
	return b.Instr(t, OpSub, nil, []string{a, x}, res)
}

// Mul appends a mul compute instruction.
func (b *Builder) Mul(t Type, a, x string, res Resource) string {
	return b.Instr(t, OpMul, nil, []string{a, x}, res)
}

// Mux appends a mux compute instruction.
func (b *Builder) Mux(t Type, cond, a, x string, res Resource) string {
	return b.Instr(t, OpMux, nil, []string{cond, a, x}, res)
}

// Reg appends a reg instruction with the given initial value attributes.
func (b *Builder) Reg(t Type, input, enable string, init []int64, res Resource) string {
	if len(init) == 0 {
		init = []int64{0}
	}
	return b.Instr(t, OpReg, init, []string{input, enable}, res)
}

// RegNamed appends a reg with an explicit destination, for feedback cycles.
func (b *Builder) RegNamed(dest string, t Type, input, enable string, init []int64, res Resource) {
	if len(init) == 0 {
		init = []int64{0}
	}
	b.InstrNamed(dest, t, OpReg, init, []string{input, enable}, res)
}

// Binary appends any two-operand compute instruction.
func (b *Builder) Binary(op Op, t Type, a, x string, res Resource) string {
	return b.Instr(t, op, nil, []string{a, x}, res)
}

// Compare appends a comparison instruction (result type bool).
func (b *Builder) Compare(op Op, a, x string, res Resource) string {
	return b.Instr(Bool(), op, nil, []string{a, x}, res)
}

// Slice appends a lane-extraction or bit-slice wire instruction.
func (b *Builder) Slice(t Type, src string, attrs ...int64) string {
	return b.Instr(t, OpSlice, attrs, []string{src}, ResAny)
}

// Id appends an identity wire instruction with an explicit destination.
func (b *Builder) Id(dest string, t Type, src string) {
	b.InstrNamed(dest, t, OpId, nil, []string{src}, ResAny)
}

// Build finalizes and checks the function.
func (b *Builder) Build() (*Func, error) {
	if b.err != nil {
		return nil, b.err
	}
	f := b.fn.Clone()
	if err := Check(f); err != nil {
		return nil, err
	}
	return f, nil
}

// MustBuild finalizes the function and panics if it fails Check.
// Intended for generators whose output shape is fixed by construction.
func (b *Builder) MustBuild() *Func {
	f, err := b.Build()
	if err != nil {
		panic(err)
	}
	return f
}
