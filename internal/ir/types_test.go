package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	tests := []struct {
		typ  Type
		want string
	}{
		{Bool(), "bool"},
		{Int(1), "i1"},
		{Int(8), "i8"},
		{Int(64), "i64"},
		{Vector(8, 4), "i8<4>"},
		{Vector(12, 2), "i12<2>"},
	}
	for _, tt := range tests {
		if got := tt.typ.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestParseType(t *testing.T) {
	for _, s := range []string{"bool", "i1", "i8", "i64", "i8<4>", "i16<32>"} {
		typ, err := ParseType(s)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", s, err)
		}
		if typ.String() != s {
			t.Errorf("round trip: ParseType(%q).String() = %q", s, typ.String())
		}
	}
}

func TestParseTypeErrors(t *testing.T) {
	for _, s := range []string{"", "int", "i0", "i65", "i8<", "i8<0>", "i8<4", "u8", "i8<x>"} {
		if _, err := ParseType(s); err == nil {
			t.Errorf("ParseType(%q) succeeded, want error", s)
		}
	}
}

func TestTypeShape(t *testing.T) {
	v := Vector(8, 4)
	if v.Width() != 8 || v.Lanes() != 4 || v.Bits() != 32 {
		t.Errorf("Vector(8,4) shape = (%d,%d,%d)", v.Width(), v.Lanes(), v.Bits())
	}
	if v.Lane() != Int(8) {
		t.Errorf("Lane() = %s, want i8", v.Lane())
	}
	if Bool().Lane() != Bool() {
		t.Errorf("bool Lane() = %s", Bool().Lane())
	}
	if !Bool().IsBool() || !Int(8).IsInt() || !v.IsVector() {
		t.Error("kind predicates wrong")
	}
}

func TestNewIntBounds(t *testing.T) {
	if _, err := NewInt(0); err == nil {
		t.Error("NewInt(0) succeeded")
	}
	if _, err := NewInt(65); err == nil {
		t.Error("NewInt(65) succeeded")
	}
	if _, err := NewVector(8, 0); err == nil {
		t.Error("NewVector(8,0) succeeded")
	}
}

func TestValueSignExtension(t *testing.T) {
	v := ScalarValue(Int(8), 255)
	if v.Scalar() != -1 {
		t.Errorf("i8 255 = %d, want -1 (sign extended)", v.Scalar())
	}
	if v.Uint(0) != 255 {
		t.Errorf("Uint = %d, want 255", v.Uint(0))
	}
	v = ScalarValue(Int(8), 127)
	if v.Scalar() != 127 {
		t.Errorf("i8 127 = %d", v.Scalar())
	}
	v = ScalarValue(Int(4), 8)
	if v.Scalar() != -8 {
		t.Errorf("i4 8 = %d, want -8", v.Scalar())
	}
}

func TestValueVector(t *testing.T) {
	v := VectorValue(Vector(8, 3), 1, -2, 130)
	lanes := v.Lanes()
	if lanes[0] != 1 || lanes[1] != -2 || lanes[2] != -126 {
		t.Errorf("lanes = %v", lanes)
	}
	if v.String() != "[1, -2, -126]" {
		t.Errorf("String = %q", v.String())
	}
}

func TestValueEqual(t *testing.T) {
	a := ScalarValue(Int(8), 5)
	b := ScalarValue(Int(8), 5)
	c := ScalarValue(Int(16), 5)
	if !a.Equal(b) {
		t.Error("equal values not Equal")
	}
	if a.Equal(c) {
		t.Error("values of different type Equal")
	}
	if !BoolValue(true).Bool() || BoolValue(false).Bool() {
		t.Error("BoolValue round trip broken")
	}
}

// Zero of every shape: each lane holds 0 and the value prints as zero.
func TestValueZero(t *testing.T) {
	for _, z := range []Value{VectorValue(Vector(8, 4), 0, 0, 0, 0), ScalarValue(Int(16), 0), BoolValue(false)} {
		for i, l := range z.Lanes() {
			if l != 0 {
				t.Errorf("%s lane %d = %d", z.Type(), i, l)
			}
		}
		if s := z.String(); s != "0" && s != "[0, 0, 0, 0]" {
			t.Errorf("%s zero prints %q", z.Type(), s)
		}
	}
}

func TestSignExtendProperty(t *testing.T) {
	// Truncating then extending is idempotent for every width.
	f := func(v int64, w uint8) bool {
		width := int(w%64) + 1
		once := signExtend(v, width)
		return signExtend(once, width) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScalarValuePanicsOnVector(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("no panic")
		}
	}()
	ScalarValue(Vector(8, 2), 0)
}

func TestValueStringScalar(t *testing.T) {
	if got := ScalarValue(Int(8), -3).String(); got != "-3" {
		t.Errorf("String = %q", got)
	}
	if got := BoolValue(true).String(); got != "1" {
		t.Errorf("bool String = %q", got)
	}
	if got := BoolValue(false).String(); got != "0" {
		t.Errorf("bool String = %q", got)
	}
}

func TestTypeStringIsParseable(t *testing.T) {
	f := func(w, l uint8) bool {
		width := int(w%64) + 1
		lanes := int(l%16) + 1
		var typ Type
		if lanes == 1 {
			typ = Int(width)
		} else {
			typ = Vector(width, lanes)
		}
		back, err := ParseType(typ.String())
		return err == nil && back == typ
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaskHelper(t *testing.T) {
	if mask(1) != 1 || mask(8) != 0xff || mask(64) != ^uint64(0) {
		t.Error("mask wrong")
	}
}

func TestPortString(t *testing.T) {
	p := Port{Name: "a", Type: Int(8)}
	if p.String() != "a:i8" {
		t.Errorf("Port.String = %q", p.String())
	}
}

func TestTypeStringUnknownKind(t *testing.T) {
	bad := Type{kind: TypeKind(9)}
	if !strings.Contains(bad.String(), "ir.Type") {
		t.Errorf("unknown kind String = %q", bad.String())
	}
}
