package ir

import "fmt"

// Op identifies an intermediate-language operation (Table 1 of the paper).
type Op uint8

// Compute operations: they consume device resources (LUTs or DSPs).
const (
	OpInvalid Op = iota

	// Arithmetic.
	OpAdd
	OpSub
	OpMul

	// Bitwise.
	OpNot
	OpAnd
	OpOr
	OpXor

	// Comparison.
	OpEq
	OpNeq
	OpLt
	OpGt
	OpLe
	OpGe

	// Control.
	OpMux

	// Memory (the only stateful instruction).
	OpReg

	// Wire operations: area-free, implemented purely with wiring.

	// Shifts by a static amount (attribute 0).
	OpSll
	OpSrl
	OpSra

	// Miscellaneous wiring.
	OpSlice // extract a bit range: attributes [hi, lo] (bit indices) or a lane index for vectors
	OpCat   // concatenate two operands (first operand = low bits)
	OpId    // identity / rename
	OpConst // constant: attributes hold lane values

	opMax
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpAdd:     "add",
	OpSub:     "sub",
	OpMul:     "mul",
	OpNot:     "not",
	OpAnd:     "and",
	OpOr:      "or",
	OpXor:     "xor",
	OpEq:      "eq",
	OpNeq:     "neq",
	OpLt:      "lt",
	OpGt:      "gt",
	OpLe:      "le",
	OpGe:      "ge",
	OpMux:     "mux",
	OpReg:     "reg",
	OpSll:     "sll",
	OpSrl:     "srl",
	OpSra:     "sra",
	OpSlice:   "slice",
	OpCat:     "cat",
	OpId:      "id",
	OpConst:   "const",
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		if Op(op) != OpInvalid {
			m[name] = Op(op)
		}
	}
	return m
}()

// String returns the op's source-syntax mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("ir.Op(%d)", uint8(o))
}

// ParseOp resolves a mnemonic to an Op.
func ParseOp(name string) (Op, error) {
	if op, ok := opByName[name]; ok {
		return op, nil
	}
	return OpInvalid, fmt.Errorf("ir: unknown operation %q", name)
}

// IsWire reports whether o is a wire operation (area-free, §4.1).
func (o Op) IsWire() bool {
	switch o {
	case OpSll, OpSrl, OpSra, OpSlice, OpCat, OpId, OpConst:
		return true
	}
	return false
}

// IsCompute reports whether o is a compute operation (consumes resources).
func (o Op) IsCompute() bool {
	return o != OpInvalid && o < opMax && !o.IsWire()
}

// IsStateful reports whether o holds state across clock cycles.
// Only reg is stateful (§4.1).
func (o Op) IsStateful() bool { return o == OpReg }

// Arity returns the number of variable arguments the op expects,
// or -1 when variable (none are today).
func (o Op) Arity() int {
	switch o {
	case OpConst:
		return 0
	case OpNot, OpSll, OpSrl, OpSra, OpSlice, OpId:
		return 1
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor,
		OpEq, OpNeq, OpLt, OpGt, OpLe, OpGe, OpCat, OpReg:
		return 2
	case OpMux:
		return 3
	}
	return -1
}
