package tdl

import (
	"strings"
	"testing"

	"reticle/internal/ir"
)

// fig10 is the paper's Figure 10: a hypothetical LUT-only target with three
// assembly instructions.
const fig10 = `
reg[lut, 1, 2](a:i8, en:bool) -> (y:i8) {
    y:i8 = reg[0](a, en);
}

add[lut, 1, 2](a:i8, b:i8) -> (y:i8) {
    y:i8 = add(a, b);
}

add_reg[lut, 1, 2](a:i8, b:i8, en:bool) -> (y:i8) {
    t0:i8 = add(a, b);
    y:i8 = reg[0](t0, en);
}
`

func TestParseFig10(t *testing.T) {
	target, err := Parse("fig10", fig10)
	if err != nil {
		t.Fatal(err)
	}
	if target.Len() != 3 {
		t.Fatalf("parsed %d definitions", target.Len())
	}
	ar, ok := target.Lookup("add_reg")
	if !ok {
		t.Fatal("add_reg missing")
	}
	if ar.Prim != ir.ResLut || ar.Area != 1 || ar.Latency != 2 {
		t.Errorf("add_reg costs = %s/%d/%d", ar.Prim, ar.Area, ar.Latency)
	}
	if len(ar.Inputs) != 3 || len(ar.Body) != 2 {
		t.Errorf("add_reg shape: %d inputs, %d body", len(ar.Inputs), len(ar.Body))
	}
	if !ar.Stateful() {
		t.Error("add_reg should be stateful")
	}
	add, _ := target.Lookup("add")
	if add.Stateful() {
		t.Error("add should be pure")
	}
}

func TestMulAddDef(t *testing.T) {
	src := `
muladd[dsp, 1, 3](a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = mul(a, b);
    y:i8 = add(t0, c);
}
`
	target, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := target.Lookup("muladd")
	if d.Prim != ir.ResDsp {
		t.Errorf("prim = %s", d.Prim)
	}
	if len(d.Inputs) != 3 || d.Inputs[2] != (ir.Port{Name: "c", Type: ir.Int(8)}) {
		t.Errorf("inputs = %v", d.Inputs)
	}
}

func TestParseVectorDef(t *testing.T) {
	src := `
vaddrega[dsp, 1, 2](a:i8<4>, b:i8<4>, en:bool) -> (y:i8<4>) {
    t0:i8<4> = add(a, b);
    y:i8<4> = reg[0](t0, en);
}
`
	target, err := Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := target.Lookup("vaddrega")
	if d.Output.Type != ir.Vector(8, 4) {
		t.Errorf("output type = %s", d.Output.Type)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []struct {
		name, src string
	}{
		{"empty", ``},
		{"bad prim", `add[bram, 1, 1](a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b); }`},
		{"wildcard prim", `add[??, 1, 1](a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b); }`},
		{"two outputs", `add[lut, 1, 1](a:i8, b:i8) -> (y:i8, z:i8) { y:i8 = add(a, b); z:i8 = id(y); }`},
		{"empty body", `add[lut, 1, 1](a:i8, b:i8) -> (y:i8) { }`},
		{"res annotation", `add[lut, 1, 1](a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @lut; }`},
		{"type error in body", `add[lut, 1, 1](a:i8, b:i16) -> (y:i8) { y:i8 = add(a, b); }`},
		{"body cycle", `osc[lut, 1, 1](en:bool) -> (y:i8) {
            t0:i8 = add(y, y);
            y:i8 = reg[0](t0, en);
        }`},
		{"undefined output", `add[lut, 1, 1](a:i8, b:i8) -> (y:i8) { t0:i8 = add(a, b); }`},
		{"negative cost", `add[lut, -1, 1](a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b); }`},
		{"missing bracket", `add lut, 1, 1](a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b); }`},
	}
	for _, tt := range bad {
		if _, err := Parse("t", tt.src); err == nil {
			t.Errorf("%s: parse succeeded", tt.name)
		}
	}
}

func TestDuplicateDefs(t *testing.T) {
	src := `
add[lut, 1, 1](a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b); }
add[dsp, 1, 1](a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b); }
`
	if _, err := Parse("t", src); err == nil {
		t.Error("duplicate definitions accepted")
	}
}

func TestDefsSorted(t *testing.T) {
	target, err := Parse("fig10", fig10)
	if err != nil {
		t.Fatal(err)
	}
	defs := target.Defs()
	for i := 1; i < len(defs); i++ {
		if defs[i-1].Name >= defs[i].Name {
			t.Errorf("Defs not sorted: %s >= %s", defs[i-1].Name, defs[i].Name)
		}
	}
}

func TestDefStringRoundTrip(t *testing.T) {
	target, err := Parse("fig10", fig10)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range target.Defs() {
		printed := d.String()
		if strings.Contains(printed, "@") {
			t.Errorf("printed TDL contains resource annotation:\n%s", printed)
		}
		re, err := Parse("reparse", printed)
		if err != nil {
			t.Fatalf("reparse of %s: %v\n%s", d.Name, err, printed)
		}
		d2, ok := re.Lookup(d.Name)
		if !ok {
			t.Fatalf("reparse lost %s", d.Name)
		}
		if d2.String() != printed {
			t.Errorf("round trip mismatch for %s:\n%s\nvs\n%s", d.Name, printed, d2.String())
		}
	}
}

func TestCommentsAllowed(t *testing.T) {
	src := `
// A tiny target.
add[lut, 1, 1](a:i8, b:i8) -> (y:i8) {
    y:i8 = add(a, b); // the whole semantics
}
`
	if _, err := Parse("t", src); err != nil {
		t.Fatal(err)
	}
}
