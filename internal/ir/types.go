// Package ir implements the Reticle intermediate language: a portable,
// instruction-based representation for FPGA programs (Fig. 5a of the paper).
//
// Programs are functions in A-normal form. Every instruction produces one
// typed destination value and reads zero or more variables. Compute
// instructions occupy device resources (LUTs or DSPs) and carry an optional
// resource annotation; wire instructions are area-free.
package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// TypeKind discriminates the three type shapes of the language.
type TypeKind uint8

// The type kinds of Fig. 5: bool, int, and vector-of-int.
const (
	KindBool TypeKind = iota
	KindInt
	KindVector
)

// Type is a Reticle value type: bool, iN, or a vector iN<lanes>.
//
// The zero value is bool. Widths are limited to 64 bits so values fit an
// int64 lane; that covers every type the paper's evaluation exercises.
type Type struct {
	kind  TypeKind
	width uint8 // bit width of a lane; 1 for bool
	lanes uint16
}

// MaxWidth is the largest supported scalar bit width.
const MaxWidth = 64

// Bool returns the boolean type.
func Bool() Type { return Type{kind: KindBool, width: 1, lanes: 1} }

// Int returns the scalar integer type iN.
// It panics if width is outside [1, MaxWidth]; use NewInt to get an error.
func Int(width int) Type {
	t, err := NewInt(width)
	if err != nil {
		panic(err)
	}
	return t
}

// NewInt returns the scalar integer type iN, validating the width.
func NewInt(width int) (Type, error) {
	if width < 1 || width > MaxWidth {
		return Type{}, fmt.Errorf("ir: integer width %d out of range [1,%d]", width, MaxWidth)
	}
	return Type{kind: KindInt, width: uint8(width), lanes: 1}, nil
}

// Vector returns the vector type iN<lanes>.
// It panics on invalid shapes; use NewVector to get an error.
func Vector(width, lanes int) Type {
	t, err := NewVector(width, lanes)
	if err != nil {
		panic(err)
	}
	return t
}

// NewVector returns the vector type iN<lanes>, validating the shape.
func NewVector(width, lanes int) (Type, error) {
	if width < 1 || width > MaxWidth {
		return Type{}, fmt.Errorf("ir: vector lane width %d out of range [1,%d]", width, MaxWidth)
	}
	if lanes < 1 || lanes > 1<<16-1 {
		return Type{}, fmt.Errorf("ir: vector lane count %d out of range", lanes)
	}
	return Type{kind: KindVector, width: uint8(width), lanes: uint16(lanes)}, nil
}

// Kind reports the type's shape.
func (t Type) Kind() TypeKind { return t.kind }

// IsBool reports whether t is bool.
func (t Type) IsBool() bool { return t.kind == KindBool }

// IsInt reports whether t is a scalar integer type.
func (t Type) IsInt() bool { return t.kind == KindInt }

// IsVector reports whether t is a vector type.
func (t Type) IsVector() bool { return t.kind == KindVector }

// Width returns the bit width of one lane (1 for bool).
func (t Type) Width() int { return int(t.width) }

// Lanes returns the number of lanes (1 for scalars and bool).
func (t Type) Lanes() int { return int(t.lanes) }

// Bits returns the total number of bits carried by a value of this type.
func (t Type) Bits() int { return int(t.width) * int(t.lanes) }

// String renders the type in source syntax: "bool", "i8", "i8<4>".
func (t Type) String() string {
	if t.kind == KindBool {
		return "bool"
	}
	var buf [16]byte
	return string(t.AppendTo(buf[:0]))
}

// AppendTo appends the type as String renders it.
func (t Type) AppendTo(b []byte) []byte {
	switch t.kind {
	case KindBool:
		return append(b, "bool"...)
	case KindInt:
		return strconv.AppendUint(append(b, 'i'), uint64(t.width), 10)
	case KindVector:
		b = strconv.AppendUint(append(b, 'i'), uint64(t.width), 10)
		b = strconv.AppendUint(append(b, '<'), uint64(t.lanes), 10)
		return append(b, '>')
	default:
		return fmt.Appendf(b, "ir.Type(%d)", t.kind)
	}
}

// ParseType parses a type in source syntax ("bool", "i8", "i8<4>").
func ParseType(s string) (Type, error) {
	switch {
	case s == "bool":
		return Bool(), nil
	case strings.HasPrefix(s, "i"):
		rest := s[1:]
		if i := strings.IndexByte(rest, '<'); i >= 0 {
			if !strings.HasSuffix(rest, ">") {
				return Type{}, fmt.Errorf("ir: malformed vector type %q", s)
			}
			w, err := strconv.Atoi(rest[:i])
			if err != nil {
				return Type{}, fmt.Errorf("ir: malformed vector type %q: %v", s, err)
			}
			l, err := strconv.Atoi(rest[i+1 : len(rest)-1])
			if err != nil {
				return Type{}, fmt.Errorf("ir: malformed vector type %q: %v", s, err)
			}
			return NewVector(w, l)
		}
		w, err := strconv.Atoi(rest)
		if err != nil {
			return Type{}, fmt.Errorf("ir: malformed type %q: %v", s, err)
		}
		return NewInt(w)
	default:
		return Type{}, fmt.Errorf("ir: unknown type %q", s)
	}
}

// Lane returns the scalar type of one lane of t: bool for bool, iN otherwise.
func (t Type) Lane() Type {
	if t.kind == KindBool {
		return Bool()
	}
	return Type{kind: KindInt, width: t.width, lanes: 1}
}
