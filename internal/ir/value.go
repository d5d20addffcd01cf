package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a bit-accurate runtime value: one int64 per lane, each lane
// sign-extended to 64 bits from the type's lane width. Booleans use lane
// width 1 (so true is -1 internally and prints as 1).
//
// Values are immutable by convention: operations return fresh Values.
type Value struct {
	typ   Type
	lanes []int64
}

// ScalarValue returns a scalar (or bool) value of type t holding v,
// truncated and sign-extended to the type's width.
func ScalarValue(t Type, v int64) Value {
	if t.IsVector() {
		panic("ir: ScalarValue on vector type " + t.String())
	}
	return Value{typ: t, lanes: []int64{signExtend(v, t.Width())}}
}

// BoolValue returns a bool-typed value.
func BoolValue(b bool) Value {
	if b {
		return Value{typ: Bool(), lanes: []int64{signExtend(1, 1)}}
	}
	return Value{typ: Bool(), lanes: []int64{0}}
}

// VectorValue returns a vector value of type t from the given lane values.
func VectorValue(t Type, vs ...int64) Value {
	if len(vs) != t.Lanes() {
		panic(fmt.Sprintf("ir: VectorValue lane count %d != %d for %s", len(vs), t.Lanes(), t))
	}
	lanes := make([]int64, len(vs))
	for i, v := range vs {
		lanes[i] = signExtend(v, t.Width())
	}
	return Value{typ: t, lanes: lanes}
}

// Type returns the value's type.
func (v Value) Type() Type { return v.typ }

// Lane returns lane i as a sign-extended int64.
func (v Value) Lane(i int) int64 { return v.lanes[i] }

// Lanes returns a copy of all lane values.
func (v Value) Lanes() []int64 {
	out := make([]int64, len(v.lanes))
	copy(out, v.lanes)
	return out
}

// Scalar returns the single lane of a scalar or bool value.
func (v Value) Scalar() int64 {
	if len(v.lanes) != 1 {
		panic("ir: Scalar on vector value of type " + v.typ.String())
	}
	return v.lanes[0]
}

// Bool interprets the value as a condition: any nonzero bit is true.
func (v Value) Bool() bool {
	for _, l := range v.lanes {
		if l != 0 {
			return true
		}
	}
	return false
}

// Uint returns lane i as an unsigned integer of the lane width.
func (v Value) Uint(i int) uint64 {
	return uint64(v.lanes[i]) & mask(v.typ.Width())
}

// Equal reports whether two values have the same type and lane contents.
func (v Value) Equal(w Value) bool {
	if v.typ != w.typ || len(v.lanes) != len(w.lanes) {
		return false
	}
	for i := range v.lanes {
		if v.lanes[i] != w.lanes[i] {
			return false
		}
	}
	return true
}

// String renders a value: "5", "-3", or "[1, 2, 3, 4]" for vectors;
// bools render as 0/1.
func (v Value) String() string {
	if v.typ.IsBool() {
		if v.Bool() {
			return "1"
		}
		return "0"
	}
	if !v.typ.IsVector() {
		return strconv.FormatInt(v.lanes[0], 10)
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, l := range v.lanes {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatInt(l, 10))
	}
	b.WriteByte(']')
	return b.String()
}

// signExtend truncates v to width bits and sign-extends the result.
func signExtend(v int64, width int) int64 {
	if width >= 64 {
		return v
	}
	shift := uint(64 - width)
	return v << shift >> shift
}

// mask returns a bit mask of the given width.
func mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(width) - 1
}
