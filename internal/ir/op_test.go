package ir

import (
	"testing"
)

// TestInstructionSetMatchesPaper pins the instruction set to Table 1 of the
// paper: compute = {arithmetic, bitwise, comparison, control, memory} and
// wire = {shift, misc}.
func TestInstructionSetMatchesPaper(t *testing.T) {
	wantCompute := []string{
		"add", "sub", "mul",
		"not", "and", "or", "xor",
		"eq", "neq", "lt", "gt", "le", "ge",
		"mux",
		"reg",
	}
	wantWire := []string{
		"sll", "srl", "sra",
		"slice", "cat", "id", "const",
	}
	gotCompute := compOps()
	if len(gotCompute) != len(wantCompute) {
		t.Fatalf("compute ops = %v, want %v", gotCompute, wantCompute)
	}
	for i, op := range gotCompute {
		if op.String() != wantCompute[i] {
			t.Errorf("compute op %d = %s, want %s", i, op, wantCompute[i])
		}
	}
	gotWire := wireOps()
	if len(gotWire) != len(wantWire) {
		t.Fatalf("wire ops = %v, want %v", gotWire, wantWire)
	}
	for i, op := range gotWire {
		if op.String() != wantWire[i] {
			t.Errorf("wire op %d = %s, want %s", i, op, wantWire[i])
		}
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	for _, op := range append(compOps(), wireOps()...) {
		back, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%s): %v", op, err)
		}
		if back != op {
			t.Errorf("ParseOp(%s) = %s", op, back)
		}
	}
	if _, err := ParseOp("frobnicate"); err == nil {
		t.Error("ParseOp of unknown op succeeded")
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpReg.IsStateful() {
		t.Error("reg must be stateful")
	}
	for _, op := range append(compOps(), wireOps()...) {
		if op != OpReg && op.IsStateful() {
			t.Errorf("%s reported stateful", op)
		}
		if op.IsWire() == op.IsCompute() {
			t.Errorf("%s is both or neither wire/compute", op)
		}
	}
	if OpInvalid.IsCompute() || OpInvalid.IsWire() {
		t.Error("invalid op classified")
	}
}

func TestOpArity(t *testing.T) {
	tests := map[Op]int{
		OpConst: 0, OpNot: 1, OpId: 1, OpSll: 1, OpSlice: 1,
		OpAdd: 2, OpReg: 2, OpCat: 2, OpEq: 2,
		OpMux: 3,
	}
	for op, want := range tests {
		if got := op.Arity(); got != want {
			t.Errorf("%s arity = %d, want %d", op, got, want)
		}
	}
}

func TestOpStringUnknown(t *testing.T) {
	if got := Op(200).String(); got != "ir.Op(200)" {
		t.Errorf("unknown op String = %q", got)
	}
}

// compOps returns all compute operations in declaration order.
func compOps() []Op {
	var ops []Op
	for o := Op(1); o < opMax; o++ {
		if o.IsCompute() {
			ops = append(ops, o)
		}
	}
	return ops
}

// wireOps returns all wire operations in declaration order.
func wireOps() []Op {
	var ops []Op
	for o := Op(1); o < opMax; o++ {
		if o.IsWire() {
			ops = append(ops, o)
		}
	}
	return ops
}
