package place

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/device"
	"reticle/internal/ir"
)

// validate checks that a slot assignment satisfies the placement rules for
// the given program: right primitives, in range, pairwise distinct, and
// every relative constraint honored.
func validate(t *testing.T, f *asm.Func, dev *device.Device, slots map[string]Slot) {
	t.Helper()
	occupied := map[Slot]string{}
	coordVals := map[string]map[string]int{} // var -> axis -> value
	for _, in := range f.Body {
		if in.IsWire() {
			continue
		}
		s, ok := slots[in.Dest]
		if !ok {
			t.Fatalf("%s has no slot", in.Dest)
		}
		if s.Prim != in.Loc.Prim {
			t.Fatalf("%s placed on %s, wants %s", in.Dest, s.Prim, in.Loc.Prim)
		}
		if s.X < 0 || s.X >= dev.NumCols(s.Prim) || s.Y < 0 || s.Y >= dev.Height {
			t.Fatalf("%s out of range: %+v", in.Dest, s)
		}
		if prev, dup := occupied[s]; dup {
			t.Fatalf("%s and %s share slice %+v", prev, in.Dest, s)
		}
		occupied[s] = in.Dest
		for axis, rc := range map[string]struct {
			c asm.Coord
			v int
		}{"x": {in.Loc.X, s.X}, "y": {in.Loc.Y, s.Y}} {
			c := rc.c
			switch {
			case c.IsLiteral():
				if int(c.Off) != rc.v {
					t.Fatalf("%s %s: literal %d, placed %d", in.Dest, axis, c.Off, rc.v)
				}
			case c.Var != "":
				want := rc.v - int(c.Off)
				if coordVals[c.Var] == nil {
					coordVals[c.Var] = map[string]int{}
				}
				if prev, seen := coordVals[c.Var][axis]; seen && prev != want {
					t.Fatalf("coordinate variable %s inconsistent: %d vs %d", c.Var, prev, want)
				}
				coordVals[c.Var][axis] = want
			}
		}
	}
}

func satDev(t *testing.T) *device.Device {
	t.Helper()
	d, err := device.Standard("satdev", 2, 1, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPlacementEnginesAgree runs a battery of programs through both the
// CSP engine (production) and the SAT engine (the paper's Z3 framing) and
// checks they agree on feasibility, with both solutions valid.
func TestPlacementEnginesAgree(t *testing.T) {
	cases := []struct {
		name string
		src  string
		sat  bool
	}{
		{
			"single wildcard", `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    y:i8 = muladd(a, b, c) @dsp(??, ??);
}`, true,
		},
		{
			"fill the dsp column", `
def f(a:i8, b:i8) -> (t3:i8) {
    t0:i8 = ma(a, b, b) @dsp(??, ??);
    t1:i8 = ma(a, b, t0) @dsp(??, ??);
    t2:i8 = ma(a, b, t1) @dsp(??, ??);
    t3:i8 = ma(a, b, t2) @dsp(??, ??);
}`, true,
		},
		{
			"overflow the dsp column", `
def f(a:i8, b:i8) -> (t4:i8) {
    t0:i8 = ma(a, b, b) @dsp(??, ??);
    t1:i8 = ma(a, b, t0) @dsp(??, ??);
    t2:i8 = ma(a, b, t1) @dsp(??, ??);
    t3:i8 = ma(a, b, t2) @dsp(??, ??);
    t4:i8 = ma(a, b, t3) @dsp(??, ??);
}`, false,
		},
		{
			"cascade chain fits", `
def f(a:i8, b:i8) -> (t2:i8) {
    t0:i8 = ma(a, b, b) @dsp(x, y);
    t1:i8 = ma(a, b, t0) @dsp(x, y+1);
    t2:i8 = ma(a, b, t1) @dsp(x, y+2);
}`, true,
		},
		{
			"cascade chain too tall", `
def f(a:i8, b:i8) -> (t4:i8) {
    t0:i8 = ma(a, b, b) @dsp(x, y);
    t1:i8 = ma(a, b, t0) @dsp(x, y+1);
    t2:i8 = ma(a, b, t1) @dsp(x, y+2);
    t3:i8 = ma(a, b, t2) @dsp(x, y+3);
    t4:i8 = ma(a, b, t3) @dsp(x, y+4);
}`, false,
		},
		{
			"chain plus pinned conflict", `
def f(a:i8, b:i8) -> (t2:i8) {
    p0:i8 = ma(a, b, b) @dsp(0, 1);
    p1:i8 = ma(a, b, b) @dsp(0, 2);
    t0:i8 = ma(a, b, p0) @dsp(x, y);
    t1:i8 = ma(a, b, t0) @dsp(x, y+1);
    t2:i8 = ma(a, b, t1) @dsp(x, y+2);
}`, false, // chain of 3 cannot avoid rows 1,2 in a 4-row single column
		},
		{
			"mixed prims", `
def f(a:i8, b:i8) -> (y:i8) {
    t0:i8 = ma(a, b, b) @dsp(??, ??);
    t1:i8 = la(t0, a) @lut(??, ??);
    y:i8 = la(t1, b) @lut(1, 3);
}`, true,
		},
		{
			"literal double booking", `
def f(a:i8, b:i8) -> (t1:i8) {
    t0:i8 = ma(a, b, b) @dsp(0, 0);
    t1:i8 = ma(a, b, t0) @dsp(0, 0);
}`, false,
		},
	}
	dev := satDev(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := asm.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			cspRes, cspErr := PlaceContext(context.Background(), f, dev, Options{})
			satSlots, satErr := PlaceSAT(f, dev)
			if (cspErr == nil) != tc.sat {
				t.Errorf("CSP engine: err = %v, want sat=%v", cspErr, tc.sat)
			}
			if (satErr == nil) != tc.sat {
				t.Errorf("SAT engine: err = %v, want sat=%v", satErr, tc.sat)
			}
			if cspErr == nil {
				validate(t, f, dev, cspRes.Slots)
			}
			if satErr == nil {
				validate(t, f, dev, satSlots)
			}
		})
	}
}

// TestEnginesAgreeOnRandomPrograms sweeps instruction counts across the
// feasibility boundary and compares engines.
func TestEnginesAgreeOnRandomPrograms(t *testing.T) {
	dev := satDev(t) // 4 DSP slices, 8 LUT slices
	for n := 1; n <= 6; n++ {
		var b strings.Builder
		b.WriteString("def f(a:i8, b:i8) -> (")
		fmt.Fprintf(&b, "t%d:i8) {\n", n-1)
		prev := "b"
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "t%d:i8 = ma(a, b, %s) @dsp(??, ??);\n", i, prev)
			prev = fmt.Sprintf("t%d", i)
		}
		b.WriteString("}\n")
		f, err := asm.Parse(b.String())
		if err != nil {
			t.Fatal(err)
		}
		_, cspErr := PlaceContext(context.Background(), f, dev, Options{})
		_, satErr := PlaceSAT(f, dev)
		if (cspErr == nil) != (satErr == nil) {
			t.Errorf("n=%d: engines disagree: csp=%v sat=%v", n, cspErr, satErr)
		}
		wantSat := n <= dev.Capacity(ir.ResDsp)
		if (cspErr == nil) != wantSat {
			t.Errorf("n=%d: feasibility = %v, want %v", n, cspErr == nil, wantSat)
		}
	}
}
