package cli

import (
	"strings"
	"testing"

	"reticle/internal/interp"
	"reticle/internal/ir"
)

func runTrace(t *testing.T, src string, in interp.Trace) (*ir.Func, interp.Trace) {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := interp.Run(f, in)
	if err != nil {
		t.Fatal(err)
	}
	return f, out
}

func TestWriteBasic(t *testing.T) {
	i8 := ir.Int(8)
	in := interp.Trace{
		{"a": ir.ScalarValue(i8, 1), "b": ir.ScalarValue(i8, 2)},
		{"a": ir.ScalarValue(i8, 1), "b": ir.ScalarValue(i8, 3)},
		{"a": ir.ScalarValue(i8, 1), "b": ir.ScalarValue(i8, 3)},
	}
	f, out := runTrace(t, `def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??; }`, in)
	var b strings.Builder
	if err := writeVCD(&b, f, in, out); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$scope module f $end",
		"$var wire 8 ",
		"$enddefinitions $end",
		"#0",
		"b00000001 ", // a = 1
		"b00000011 ", // y = 3 at cycle 0
		"#1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q:\n%s", want, got)
		}
	}
	// Cycle 2 repeats cycle 1: no #2 section (only the trailing marker).
	if strings.Count(got, "#2") > 0 && strings.Index(got, "#2") < strings.Index(got, "#3") {
		// trailing end marker is #3
		t.Errorf("unchanged cycle emitted values:\n%s", got)
	}
}

func TestWriteBoolAndChanges(t *testing.T) {
	in := interp.Trace{
		{"a": ir.BoolValue(false)},
		{"a": ir.BoolValue(true)},
		{"a": ir.BoolValue(true)},
		{"a": ir.BoolValue(false)},
	}
	f, out := runTrace(t, `def g(a:bool) -> (y:bool) { y:bool = not(a) @lut; }`, in)
	var b strings.Builder
	if err := writeVCD(&b, f, in, out); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, "$var wire 1 ") {
		t.Errorf("bool var decl missing:\n%s", got)
	}
	// Scalar 1-bit changes print without the 'b' prefix.
	lines := strings.Split(got, "\n")
	sawScalar := false
	for _, ln := range lines {
		if len(ln) == 2 && (ln[0] == '0' || ln[0] == '1') {
			sawScalar = true
		}
	}
	if !sawScalar {
		t.Errorf("no scalar change records:\n%s", got)
	}
}

func TestWriteVector(t *testing.T) {
	v4 := ir.Vector(8, 4)
	in := interp.Trace{
		{"a": ir.VectorValue(v4, 1, 2, 3, 4), "b": ir.VectorValue(v4, 0, 0, 0, 0)},
	}
	f, out := runTrace(t, `def h(a:i8<4>, b:i8<4>) -> (y:i8<4>) { y:i8<4> = add(a, b) @??; }`, in)
	var b strings.Builder
	if err := writeVCD(&b, f, in, out); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, "$var wire 32 ") {
		t.Errorf("vector width decl missing:\n%s", got)
	}
	// Lane 0 = 1 occupies the lowest 8 bits.
	if !strings.Contains(got, "b00000100000000110000001000000001 ") {
		t.Errorf("vector bits wrong:\n%s", got)
	}
}

func TestWriteLengthMismatch(t *testing.T) {
	f, err := ir.Parse(`def f(a:bool) -> (y:bool) { y:bool = id(a); }`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := writeVCD(&b, f, make(interp.Trace, 2), make(interp.Trace, 1)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestBitsOfNegative(t *testing.T) {
	v := ir.ScalarValue(ir.Int(4), -1)
	if got := bitsOf(v); got != "1111" {
		t.Errorf("bits = %q", got)
	}
	if got := bitsOf(ir.BoolValue(true)); got != "1" {
		t.Errorf("bool bits = %q", got)
	}
}

func TestIdentifiersUnique(t *testing.T) {
	// Many ports: identifier codes must not collide.
	b := ir.NewBuilder("wide")
	i8 := ir.Int(8)
	var outs []string
	for i := 0; i < 100; i++ {
		in := b.Input(portName(i), i8)
		outs = append(outs, b.Instr(i8, ir.OpNot, nil, []string{in}, ir.ResLut))
	}
	for _, o := range outs {
		b.Output(o, i8)
	}
	f := b.MustBuild()
	in := make(interp.Trace, 1)
	in[0] = interp.Step{}
	for _, p := range f.Inputs {
		in[0][p.Name] = ir.ScalarValue(i8, 0)
	}
	out, err := interp.Run(f, in)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := writeVCD(&sb, f, in, out); err != nil {
		t.Fatal(err)
	}
	// Every $var line must declare a distinct id.
	ids := map[string]bool{}
	for _, ln := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(ln, "$var wire") {
			continue
		}
		parts := strings.Fields(ln)
		id := parts[3]
		if ids[id] {
			t.Fatalf("duplicate id %q", id)
		}
		ids[id] = true
	}
	if len(ids) != 200 {
		t.Errorf("ids = %d, want 200", len(ids))
	}
}

func portName(i int) string {
	return "p" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
