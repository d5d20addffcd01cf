package asm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"reticle/internal/ir"
)

// The fmt-based printer the append-based one replaced, kept as the
// reference: String() must produce these bytes exactly.

func refCoord(c Coord) string {
	switch {
	case c.Wild:
		return "??"
	case c.Var == "":
		return fmt.Sprintf("%d", c.Off)
	case c.Off == 0:
		return c.Var
	case c.Off < 0:
		return fmt.Sprintf("%s%d", c.Var, c.Off)
	default:
		return fmt.Sprintf("%s+%d", c.Var, c.Off)
	}
}

func refLoc(l Loc) string {
	return fmt.Sprintf("%s(%s, %s)", l.Prim, refCoord(l.X), refCoord(l.Y))
}

func refInstr(in Instr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s = ", in.Dest, in.Type)
	if in.IsWire() {
		b.WriteString(in.Op.String())
	} else {
		b.WriteString(in.Name)
	}
	if len(in.Attrs) > 0 {
		b.WriteByte('[')
		for i, a := range in.Attrs {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", a)
		}
		b.WriteByte(']')
	}
	if !(in.IsWire() && in.Op == ir.OpConst) {
		fmt.Fprintf(&b, "(%s)", strings.Join(in.Args, ", "))
	}
	if !in.IsWire() {
		fmt.Fprintf(&b, " @%s", refLoc(in.Loc))
	}
	b.WriteByte(';')
	return b.String()
}

func refFunc(f *Func) string {
	ports := func(ps []ir.Port) string {
		var out []string
		for _, p := range ps {
			out = append(out, p.String())
		}
		return strings.Join(out, ", ")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "def %s(%s) -> (%s) {\n", f.Name, ports(f.Inputs), ports(f.Outputs))
	for _, in := range f.Body {
		fmt.Fprintf(&b, "    %s\n", refInstr(in))
	}
	b.WriteString("}\n")
	return b.String()
}

// randomFunc builds a structurally valid assembly function that visits
// every branch of the printer: all three type kinds, wildcard, literal,
// bare-variable and offset coordinates of both signs, wire instructions
// with and without attributes, and multi-attribute assembly instructions.
func randomFunc(rng *rand.Rand) *Func {
	types := []ir.Type{ir.Bool(), ir.Int(1), ir.Int(8), ir.Int(64), ir.Vector(8, 4), ir.Vector(16, 12)}
	typ := func() ir.Type { return types[rng.Intn(len(types))] }
	offs := []int64{0, 1, -1, 7, -12, 1234, math.MaxInt64, math.MinInt64}
	coord := func() Coord {
		switch rng.Intn(4) {
		case 0:
			return Wildcard()
		case 1:
			return At(offs[rng.Intn(len(offs))])
		default:
			return VarPlus([]string{"x", "y0", "col_2"}[rng.Intn(3)], offs[rng.Intn(len(offs))])
		}
	}
	attrs := func(n int) []int64 {
		var out []int64
		for i := 0; i < n; i++ {
			out = append(out, offs[rng.Intn(len(offs))])
		}
		return out
	}
	f := &Func{Name: fmt.Sprintf("f%d", rng.Intn(1000))}
	var names []string
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		p := ir.Port{Name: fmt.Sprintf("in%d", i), Type: typ()}
		f.Inputs = append(f.Inputs, p)
		names = append(names, p.Name)
	}
	args := func(n int) []string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, names[rng.Intn(len(names))])
		}
		return out
	}
	for i, n := 0, 1+rng.Intn(12); i < n; i++ {
		in := Instr{Dest: fmt.Sprintf("t%d", i), Type: typ()}
		switch rng.Intn(5) {
		case 0:
			in.Op, in.Attrs = ir.OpConst, attrs(1+rng.Intn(4))
		case 1:
			in.Op, in.Attrs, in.Args = ir.OpSll, attrs(1), args(1)
		case 2:
			in.Op, in.Args = ir.OpCat, args(2)
		default:
			in.Name = []string{"muladd_i8", "addrega_co", "lut_reg"}[rng.Intn(3)]
			in.Attrs, in.Args = attrs(rng.Intn(5)), args(rng.Intn(5))
			in.Loc = Loc{Prim: []ir.Resource{ir.ResLut, ir.ResDsp}[rng.Intn(2)], X: coord(), Y: coord()}
		}
		f.Body = append(f.Body, in)
		names = append(names, in.Dest)
	}
	for i, n := 0, 1+rng.Intn(3); i < n && i < len(f.Body); i++ {
		in := f.Body[len(f.Body)-1-i]
		f.Outputs = append(f.Outputs, ir.Port{Name: in.Dest, Type: in.Type})
	}
	return f
}

// TestPrinterEqualsFmtReference: the append-based printer and the fmt-based
// reference agree byte for byte, per function, instruction, location and
// coordinate, and what is printed parses back to the same function.
func TestPrinterEqualsFmtReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 400; i++ {
		f := randomFunc(rng)
		text := f.String()
		if want := refFunc(f); text != want {
			t.Fatalf("Func.String differs from the fmt reference:\n got  %q\n want %q", text, want)
		}
		for _, in := range f.Body {
			if got, want := in.String(), refInstr(in); got != want {
				t.Fatalf("Instr.String = %q, want %q", got, want)
			}
			if in.IsWire() {
				continue
			}
			if got, want := in.Loc.String(), refLoc(in.Loc); got != want {
				t.Fatalf("Loc.String = %q, want %q", got, want)
			}
			if got, want := in.Loc.X.String(), refCoord(in.Loc.X); got != want {
				t.Fatalf("Coord.String = %q, want %q", got, want)
			}
		}
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("printed function does not parse: %v\n%s", err, text)
		}
		// A zero offset on a variable prints as the bare variable; an
		// argument list prints as "()" whether nil or empty. Both parse to
		// the canonical form, which is what reprinting compares.
		if back.String() != text {
			t.Fatalf("round trip changed the text:\n%s\nvs\n%s", text, back)
		}
		if len(back.Body) != len(f.Body) || !reflect.DeepEqual(back.Inputs, f.Inputs) ||
			!reflect.DeepEqual(back.Outputs, f.Outputs) {
			t.Fatalf("round trip changed the signature or body length of\n%s", text)
		}
		for j, in := range f.Body {
			b := back.Body[j]
			if b.Loc != in.Loc || b.Op != in.Op || b.Name != in.Name || b.Type != in.Type ||
				fmt.Sprint(b.Attrs) != fmt.Sprint(in.Attrs) || fmt.Sprint(b.Args) != fmt.Sprint(in.Args) {
				t.Fatalf("round trip changed instruction %d: %+v vs %+v", j, b, in)
			}
		}
	}
}
