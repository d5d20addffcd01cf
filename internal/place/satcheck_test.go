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

// placementRule reports the first placement rule that slot breaks for the
// non-wire instructions of body, where slot[i] is body[i]'s slice: the
// slice is of the primitive the instruction asks for and on the device,
// no two instructions share one, every literal coordinate is kept, and a
// coordinate variable takes one value per axis, which names a column (x)
// or a row (y) of the instruction's primitive. The test side states the
// rules here once: validate and enumerate both ask this.
func placementRule(body []asm.Instr, dev *device.Device, slot []Slot) error {
	for i, in := range body {
		if in.IsWire() {
			continue
		}
		s := slot[i]
		if s.Prim != in.Loc.Prim {
			return fmt.Errorf("%s placed on %s, wants %s", in.Dest, s.Prim, in.Loc.Prim)
		}
		if s.X < 0 || s.X >= dev.NumCols(s.Prim) || s.Y < 0 || s.Y >= dev.Height {
			return fmt.Errorf("%s out of range: %+v", in.Dest, s)
		}
		for j := range i {
			if !body[j].IsWire() && slot[j] == s {
				return fmt.Errorf("%s and %s share slice %+v", body[j].Dest, in.Dest, s)
			}
		}
		for axis, c := range [2]asm.Coord{in.Loc.X, in.Loc.Y} {
			v, n := [2]int{s.X, s.Y}[axis], [2]int{dev.NumCols(s.Prim), dev.Height}[axis]
			switch {
			case c.IsLiteral():
				if int(c.Off) != v {
					return fmt.Errorf("%s axis %d: literal %d, placed %d", in.Dest, axis, c.Off, v)
				}
			case c.Var != "":
				val := v - int(c.Off)
				if val < 0 || val >= n {
					return fmt.Errorf("%s: coordinate variable %s = %d outside [0,%d)", in.Dest, c.Var, val, n)
				}
				for j := range i {
					prev := [2]asm.Coord{body[j].Loc.X, body[j].Loc.Y}[axis]
					if body[j].IsWire() || prev.Var != c.Var {
						continue
					}
					if pv := [2]int{slot[j].X, slot[j].Y}[axis] - int(prev.Off); pv != val {
						return fmt.Errorf("coordinate variable %s inconsistent: %d vs %d", c.Var, pv, val)
					}
				}
			}
		}
	}
	return nil
}

// validate fails the test unless slots, keyed by destination, place every
// non-wire instruction of f by the placement rules.
func validate(t *testing.T, f *asm.Func, dev *device.Device, slots map[string]Slot) {
	t.Helper()
	slot := make([]Slot, len(f.Body))
	for i, in := range f.Body {
		if in.IsWire() {
			continue
		}
		s, ok := slots[in.Dest]
		if !ok {
			t.Fatalf("%s has no slot", in.Dest)
		}
		slot[i] = s
	}
	if err := placementRule(f.Body, dev, slot); err != nil {
		t.Fatal(err)
	}
}

// enumerate is the placement engine's independent oracle: it tries every
// slot of its primitive for each non-wire instruction in body order,
// backtracking as soon as placementRule refuses the instructions placed
// so far, and returns the first full placement the rules accept, or nil
// when there is none. within (nil: every slot) says which slots may be
// tried. It shares no code with the engine: no clusters, anchor domains,
// difference sets or solver.
func enumerate(f *asm.Func, dev *device.Device, within func(Slot) bool) []Slot {
	body := f.Body
	slot := make([]Slot, len(body))
	var place func(i int) bool
	place = func(i int) bool {
		for i < len(body) && body[i].IsWire() {
			i++
		}
		if i == len(body) {
			return true
		}
		prim := body[i].Loc.Prim
		for x := range dev.NumCols(prim) {
			for y := range dev.Height {
				s := Slot{Prim: prim, X: x, Y: y}
				if within != nil && !within(s) {
					continue
				}
				slot[i] = s
				if placementRule(body[:i+1], dev, slot) == nil && place(i+1) {
					return true
				}
			}
		}
		return false
	}
	if !place(0) {
		return nil
	}
	return slot
}

func satDev(t *testing.T) *device.Device {
	t.Helper()
	d, err := device.Standard("satdev", 2, 1, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPlacementEnginesAgree runs a battery of programs through the CSP
// engine and the enumerator and checks that both give the expected
// verdict, with both placements valid.
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
			enum := enumerate(f, dev, nil)
			if (cspErr == nil) != tc.sat {
				t.Errorf("CSP engine: err = %v, want sat=%v", cspErr, tc.sat)
			}
			if (enum != nil) != tc.sat {
				t.Errorf("enumerator: found a placement = %v, want sat=%v", enum != nil, tc.sat)
			}
			if cspErr == nil {
				validate(t, f, dev, slots(cspRes.Fn))
				shrinkMinimal(t, f, dev)
			}
		})
	}
}

// TestEnginesAgreeOnRandomPrograms sweeps instruction counts across the
// feasibility boundary and compares the CSP engine with the enumerator.
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
		enum := enumerate(f, dev, nil)
		if (cspErr == nil) != (enum != nil) {
			t.Errorf("n=%d: engines disagree: csp=%v, enumerator found a placement: %v", n, cspErr, enum != nil)
		}
		wantSat := n <= dev.Capacity(ir.ResDsp)
		if (cspErr == nil) != wantSat {
			t.Errorf("n=%d: feasibility = %v, want %v", n, cspErr == nil, wantSat)
		}
		if cspErr == nil {
			shrinkMinimal(t, f, dev)
		}
	}
}

// TestVerifyRefusesVariableOffDevice: a coordinate variable's value must
// name a column (x) or a row (y) of the primitive even when its offset
// brings the instruction back onto the device, as the engine's anchor
// domains require; values inside the device pass.
func TestVerifyRefusesVariableOffDevice(t *testing.T) {
	dev := satDev(t) // 2 LUT columns, 1 DSP column, 4 rows
	for _, tc := range []struct {
		loc  string
		x, y int64
		ok   bool
	}{
		{"@dsp(v+1, 0)", 0, 0, false}, // v = -1
		{"@lut(v-1, 0)", 1, 0, false}, // v = 2, the LUT column count
		{"@dsp(0, w+2)", 0, 1, false}, // w = -1
		{"@dsp(0, w-1)", 0, 3, false}, // w = 4, the height
		{"@lut(v+1, 0)", 1, 0, true},  // v = 0
		{"@dsp(0, w-1)", 0, 2, true},  // w = 3
	} {
		orig, err := asm.Parse("def f(a:i8, b:i8) -> (t0:i8) {\n    t0:i8 = ma(a, b, b) " + tc.loc + ";\n}")
		if err != nil {
			t.Fatal(err)
		}
		placed := orig.Clone()
		placed.Body[0].Loc.X, placed.Body[0].Loc.Y = asm.At(tc.x), asm.At(tc.y)
		if err := Verify(orig, placed, dev); (err == nil) != tc.ok {
			t.Errorf("%s at (%d, %d): Verify = %v, want ok=%v", tc.loc, tc.x, tc.y, err, tc.ok)
		}
	}
}
