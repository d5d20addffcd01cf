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
// definition–use edges (isel's dataflow graph) would otherwise look up all
// over again.
func Resolve(f *Func) (Symbols, error) {
	syms, err := check(f)
	if err == nil {
		err = Ordered(f, syms)
	}
	if err != nil {
		return Symbols{}, err
	}
	return syms, nil
}

// Ordered is the well-formedness half of Resolve, on a function Check
// has passed and the symbol table that check built.
func Ordered(f *Func, syms Symbols) error {
	_, err := topoOrder(f, syms.Args)
	return err
}

func check(f *Func) (Symbols, error) {
	if f.Name == "" {
		return Symbols{}, fmt.Errorf("ir: function has no name")
	}
	n, err := Number("ir", f.Name, f.Inputs, f.Outputs, make(map[string]int32, len(f.Inputs)+len(f.Body)))
	if err != nil {
		return Symbols{}, err
	}
	for i := range f.Body {
		if err := n.Define("ir", f.Name, f.Body[i].Dest, len(f.Body[i].Args)); err != nil {
			return Symbols{}, err
		}
	}
	refs := n.Refs(len(f.Outputs))
	for i := range f.Body {
		in := &f.Body[i]
		if refs, err = checkInstr(f, in, &n, refs); err != nil {
			return Symbols{}, fmt.Errorf("ir: function %s: instruction %d (%s): %w", f.Name, i, in.Dest, err)
		}
	}
	return n.Close("ir", f.Name, f.Inputs, f.Outputs, f.valueType, refs)
}

// Numbering numbers a function's values as Symbols does, and holds the
// naming rules of both checkers, this package's and asm's: distinct
// inputs and destinations, defined arguments, and the output-port rule.
// A checker numbers the inputs (Number), defines each body destination
// in order (Define), appends the value behind each argument in order to
// the table (Refs, Value), and closes the table (Close). The language
// and the function's name prefix the errors. They are passed in rather
// than kept, and the caller makes the name map, so that the map can
// stay on the caller's stack.
type Numbering struct {
	index map[string]int32
	next  int32 // the value the next Define numbers
	nargs int   // the arguments of the instructions defined so far
}

// Number starts the numbering of a function with the given ports in
// index, an empty map sized for its names: the function must have
// outputs, and its inputs, values 0 to len(inputs)-1, distinct names.
func Number(lang, fn string, inputs, outputs []Port, index map[string]int32) (Numbering, error) {
	if len(outputs) == 0 {
		return Numbering{}, fmt.Errorf("%s: function %s has no outputs", lang, fn)
	}
	n := Numbering{index: index}
	for _, p := range inputs {
		if _, dup := n.index[p.Name]; dup {
			return Numbering{}, fmt.Errorf("%s: function %s: duplicate input %q", lang, fn, p.Name)
		}
		n.index[p.Name] = n.next
		n.next++
	}
	return n, nil
}

// Define numbers the next body destination, whose instruction takes
// nargs arguments.
func (n *Numbering) Define(lang, fn, dest string, nargs int) error {
	if _, dup := n.index[dest]; dup {
		return fmt.Errorf("%s: function %s: %q defined more than once", lang, fn, dest)
	}
	n.index[dest] = n.next
	n.next++
	n.nargs += nargs
	return nil
}

// Refs returns an empty table with room for the value behind every
// argument of the defined instructions and every one of nout outputs.
func (n *Numbering) Refs(nout int) []int32 { return make([]int32, 0, n.nargs+nout) }

// Value returns the value behind a name, and whether the name is defined.
func (n *Numbering) Value(name string) (int32, bool) {
	v, ok := n.index[name]
	return v, ok
}

// Close applies the output-port rule to refs, the argument table, and
// returns the symbols. Each output names a distinct instruction result of
// its declared type, since an output that repeats another or names an
// input would become a port declared twice in the generated module;
// valueType gives a value's type. It marks each name an output takes by
// the complement of its value, so the numbering is spent afterwards.
func (n *Numbering) Close(lang, fn string, inputs, outputs []Port, valueType func(int32) Type, refs []int32) (Symbols, error) {
	refs, err := n.checkOutputs(inputs, outputs, valueType, refs)
	if err != nil {
		return Symbols{}, fmt.Errorf("%s: function %s: %w", lang, fn, err)
	}
	return Symbols{Args: refs[:n.nargs:n.nargs], Outputs: refs[n.nargs:]}, nil
}

func (n *Numbering) checkOutputs(inputs, outputs []Port, valueType func(int32) Type, refs []int32) ([]int32, error) {
	nin := len(inputs)
	firstInput := int32(nin)
	for _, out := range outputs {
		v, ok := n.index[out.Name]
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
		n.index[out.Name] = ^v
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

// checkInstr resolves the instruction's arguments through n, appending
// the value behind each to refs, and applies the per-op rules.
func checkInstr(f *Func, in *Instr, n *Numbering, refs []int32) ([]int32, error) {
	if want := in.Op.Arity(); want >= 0 && len(in.Args) != want {
		return refs, fmt.Errorf("%s takes %d arguments, got %d", in.Op, want, len(in.Args))
	}
	var buf [4]Type // no op takes more than three arguments
	argT := buf[:0]
	for _, a := range in.Args {
		v, ok := n.Value(a)
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
