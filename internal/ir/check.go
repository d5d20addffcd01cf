package ir

import (
	"fmt"
)

// Check validates a function: unique names, resolved arguments, per-op type
// rules, and attribute shapes. It does not check well-formedness (absence of
// combinational cycles); Resolve and CheckWellFormed do.
func Check(f *Func) error {
	_, err := check(f)
	return err
}

// Symbols is the symbol table Check builds: every name an instruction or an
// output port uses, resolved to the value it denotes. Value v is input v
// when v < len(f.Inputs), and instruction v-len(f.Inputs) otherwise.
type Symbols struct {
	Args    []int32 // the value behind each argument, instruction by instruction
	Outputs []int32 // the value behind each output port
}

// Resolve is Check and the well-formedness criterion of §6.1 in one pass
// over one symbol table, which it returns: what a consumer that needs the
// definition–use edges (package dfg) would otherwise look up all over again.
func Resolve(f *Func) (Symbols, error) {
	syms, err := check(f)
	if err == nil {
		_, err = topoOrder(f, syms.Args)
	}
	if err != nil {
		return Symbols{}, err
	}
	return syms, nil
}

func check(f *Func) (Symbols, error) {
	if f.Name == "" {
		return Symbols{}, fmt.Errorf("ir: function has no name")
	}
	if len(f.Outputs) == 0 {
		return Symbols{}, fmt.Errorf("ir: function %s has no outputs", f.Name)
	}
	nin, nargs := len(f.Inputs), 0
	index := make(map[string]int32, nin+len(f.Body))
	for i, p := range f.Inputs {
		if _, dup := index[p.Name]; dup {
			return Symbols{}, fmt.Errorf("ir: function %s: duplicate input %q", f.Name, p.Name)
		}
		index[p.Name] = int32(i)
	}
	for i := range f.Body {
		in := &f.Body[i]
		if _, dup := index[in.Dest]; dup {
			return Symbols{}, fmt.Errorf("ir: function %s: %q defined more than once", f.Name, in.Dest)
		}
		index[in.Dest] = int32(nin + i)
		nargs += len(in.Args)
	}
	refs := make([]int32, 0, nargs+len(f.Outputs))
	for i := range f.Body {
		in := &f.Body[i]
		var err error
		if refs, err = checkInstr(f, in, index, refs); err != nil {
			return Symbols{}, fmt.Errorf("ir: function %s: instruction %d (%s): %w", f.Name, i, in.Dest, err)
		}
	}
	refs, err := CheckOutputs(f.Inputs, f.Outputs, index, f.valueType, refs)
	if err != nil {
		return Symbols{}, fmt.Errorf("ir: function %s: %w", f.Name, err)
	}
	return Symbols{Args: refs[:nargs:nargs], Outputs: refs[nargs:]}, nil
}

// CheckOutputs is the output-port rule of both checkers, this package's
// and asm's: each output names a distinct instruction result of its
// declared type, since an output that repeats another or names an input
// would become a port declared twice in the generated module. index
// resolves names to values numbered as in Symbols, and valueType gives a
// value's type. It appends the value behind each output to refs and
// marks each name an output takes by the complement of its value, so
// index is spent afterwards.
func CheckOutputs(inputs, outputs []Port, index map[string]int32, valueType func(int32) Type, refs []int32) ([]int32, error) {
	nin := len(inputs)
	firstInput := int32(nin)
	for _, out := range outputs {
		v, ok := index[out.Name]
		taken := v < 0
		if taken {
			v = ^v
		}
		switch {
		case !ok:
			return refs, fmt.Errorf("output %q is never defined", out.Name)
		case valueType(v) != out.Type:
			return refs, fmt.Errorf("output %q has type %s, declared %s", out.Name, valueType(v), out.Type)
		case taken:
			return refs, fmt.Errorf("duplicate output %q", out.Name)
		}
		index[out.Name] = ^v
		firstInput = min(firstInput, v)
		refs = append(refs, v)
	}
	if int(firstInput) < nin {
		return refs, fmt.Errorf("output %q names an input; use id", inputs[firstInput].Name)
	}
	return refs, nil
}

// valueType returns the declared type of value v (see Symbols).
func (f *Func) valueType(v int32) Type {
	if nin := len(f.Inputs); int(v) >= nin {
		return f.Body[int(v)-nin].Type
	}
	return f.Inputs[v].Type
}

// checkInstr resolves the instruction's arguments through index, appending
// the value behind each to refs, and applies the per-op rules.
func checkInstr(f *Func, in *Instr, index map[string]int32, refs []int32) ([]int32, error) {
	if want := in.Op.Arity(); want >= 0 && len(in.Args) != want {
		return refs, fmt.Errorf("%s takes %d arguments, got %d", in.Op, want, len(in.Args))
	}
	var buf [4]Type // no op takes more than three arguments
	argT := buf[:0]
	for _, a := range in.Args {
		v, ok := index[a]
		if !ok {
			return refs, fmt.Errorf("argument %q is undefined", a)
		}
		refs, argT = append(refs, v), append(argT, f.valueType(v))
	}
	return refs, checkTypes(in, argT)
}

// checkTypes applies the per-op type and attribute rules to an instruction
// of the right arity whose arguments have types argT.
func checkTypes(in *Instr, argT []Type) error {
	switch in.Op {
	case OpAdd, OpSub, OpMul:
		if in.Type.IsBool() {
			return fmt.Errorf("%s result cannot be bool", in.Op)
		}
		return wantSameTypes(in, argT, in.Type, in.Type)
	case OpAnd, OpOr, OpXor:
		return wantSameTypes(in, argT, in.Type, in.Type)
	case OpNot:
		return wantSameTypes(in, argT, in.Type)
	case OpEq, OpNeq, OpLt, OpGt, OpLe, OpGe:
		if !in.Type.IsBool() {
			return fmt.Errorf("%s result must be bool, got %s", in.Op, in.Type)
		}
		if argT[0] != argT[1] {
			return fmt.Errorf("%s operands differ: %s vs %s", in.Op, argT[0], argT[1])
		}
		if argT[0].IsVector() {
			return fmt.Errorf("%s does not apply to vectors", in.Op)
		}
		return nil
	case OpMux:
		if !argT[0].IsBool() {
			return fmt.Errorf("mux condition must be bool, got %s", argT[0])
		}
		return wantSameTypes(in, argT[1:], in.Type, in.Type)
	case OpReg:
		if !argT[1].IsBool() {
			return fmt.Errorf("reg enable must be bool, got %s", argT[1])
		}
		if argT[0] != in.Type {
			return fmt.Errorf("reg input has type %s, result %s", argT[0], in.Type)
		}
		return checkLaneAttrs(in, "initial value")
	case OpSll, OpSrl, OpSra:
		if len(in.Attrs) != 1 {
			return fmt.Errorf("%s takes one shift-amount attribute, got %d", in.Op, len(in.Attrs))
		}
		if !in.Type.IsInt() {
			return fmt.Errorf("%s applies to scalar integers, got %s", in.Op, in.Type)
		}
		if argT[0] != in.Type {
			return fmt.Errorf("%s operand has type %s, result %s", in.Op, argT[0], in.Type)
		}
		if s := in.Attrs[0]; s < 0 || s >= int64(in.Type.Width()) {
			return fmt.Errorf("%s shift amount %d out of range for %s", in.Op, s, in.Type)
		}
		return nil
	case OpSlice:
		return checkSlice(in, argT[0])
	case OpCat:
		return checkCat(in, argT)
	case OpId:
		return wantSameTypes(in, argT, in.Type)
	case OpConst:
		return checkLaneAttrs(in, "value")
	}
	return fmt.Errorf("unhandled op %s", in.Op)
}

func wantSameTypes(in *Instr, argT []Type, want ...Type) error {
	if len(argT) != len(want) {
		return fmt.Errorf("%s takes %d arguments, got %d", in.Op, len(want), len(argT))
	}
	for i, t := range argT {
		if t != want[i] {
			return fmt.Errorf("%s argument %d has type %s, want %s", in.Op, i, t, want[i])
		}
	}
	return nil
}

// checkLaneAttrs validates const/reg attributes: either one splat value or
// one value per lane.
func checkLaneAttrs(in *Instr, what string) error {
	switch len(in.Attrs) {
	case 1:
		return nil
	case in.Type.Lanes():
		return nil
	default:
		if in.Type.Lanes() == 1 {
			return fmt.Errorf("%s takes 1 %s attribute, got %d", in.Op, what, len(in.Attrs))
		}
		return fmt.Errorf("%s takes 1 or %d %s attributes, got %d",
			in.Op, in.Type.Lanes(), what, len(in.Attrs))
	}
}

func checkSlice(in *Instr, src Type) error {
	if src.IsVector() {
		// Lane extraction: slice[lane](v) with scalar result.
		if len(in.Attrs) != 1 {
			return fmt.Errorf("vector slice takes one lane attribute, got %d", len(in.Attrs))
		}
		lane := in.Attrs[0]
		if lane < 0 || lane >= int64(src.Lanes()) {
			return fmt.Errorf("slice lane %d out of range for %s", lane, src)
		}
		if in.Type != src.Lane() {
			return fmt.Errorf("slice of %s yields %s, result declared %s", src, src.Lane(), in.Type)
		}
		return nil
	}
	// Bit extraction: slice[hi, lo](x).
	if len(in.Attrs) != 2 {
		return fmt.Errorf("scalar slice takes [hi, lo] attributes, got %d", len(in.Attrs))
	}
	hi, lo := in.Attrs[0], in.Attrs[1]
	if lo < 0 || hi < lo || hi >= int64(src.Width()) {
		return fmt.Errorf("slice range [%d, %d] invalid for %s", hi, lo, src)
	}
	wantBits := int(hi - lo + 1)
	if in.Type.IsVector() || in.Type.Bits() != wantBits {
		return fmt.Errorf("slice [%d, %d] yields %d bits, result declared %s", hi, lo, wantBits, in.Type)
	}
	return nil
}

func checkCat(in *Instr, argT []Type) error {
	a, b := argT[0], argT[1]
	// Vector-building concatenation: when the result is declared as a
	// vector, scalars act as one-lane vectors of their width. This is how
	// the vectorization pass (§8.2) packs independent scalars.
	if in.Type.IsVector() {
		if a.IsBool() || b.IsBool() {
			return fmt.Errorf("cat cannot build vectors from bool operands")
		}
		if a.Width() != b.Width() || a.Width() != in.Type.Width() {
			return fmt.Errorf("cat lane widths differ: %s, %s into %s", a, b, in.Type)
		}
		if a.Lanes()+b.Lanes() != in.Type.Lanes() {
			return fmt.Errorf("cat of %s and %s yields i%d<%d>, result declared %s",
				a, b, a.Width(), a.Lanes()+b.Lanes(), in.Type)
		}
		return nil
	}
	if a.IsVector() || b.IsVector() {
		return fmt.Errorf("cat of vectors must declare a vector result: %s, %s into %s",
			a, b, in.Type)
	}
	want := a.Bits() + b.Bits()
	if in.Type.Bits() != want {
		return fmt.Errorf("cat of %s and %s yields %d bits, result declared %s", a, b, want, in.Type)
	}
	return nil
}
