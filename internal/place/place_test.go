package place

import (
	"context"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/device"
	"reticle/internal/ir"
)

// slots reads each assembly instruction's slice off a placed program.
func slots(f *asm.Func) map[string]Slot {
	m := make(map[string]Slot)
	for _, in := range f.Body {
		if !in.IsWire() {
			m[in.Dest] = Slot{Prim: in.Loc.Prim, X: int(in.Loc.X.Off), Y: int(in.Loc.Y.Off)}
		}
	}
	return m
}

// extent returns the largest column and row a placed program uses on
// prim, 0 when it uses none.
func extent(f *asm.Func, prim ir.Resource) (maxX, maxY int) {
	for _, s := range slots(f) {
		if s.Prim == prim {
			maxX, maxY = max(maxX, s.X), max(maxY, s.Y)
		}
	}
	return maxX, maxY
}

func dev4(t *testing.T) *device.Device {
	t.Helper()
	d, err := device.Standard("test4", 4, 2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustPlace(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	f, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlaceContext(context.Background(), f, dev4(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPlaceWildcards(t *testing.T) {
	res := mustPlace(t, `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = muladd(a, b, c) @dsp(??, ??);
    y:i8 = muladd(t0, a, b) @dsp(??, ??);
}
`, Options{})
	if !res.Fn.Resolved() {
		t.Fatalf("unresolved output:\n%s", res.Fn)
	}
	ss := slots(res.Fn)
	s0, s1 := ss["t0"], ss["y"]
	if s0 == s1 {
		t.Errorf("two instructions share slice %+v", s0)
	}
	if s0.Prim != ir.ResDsp || s1.Prim != ir.ResDsp {
		t.Errorf("prims = %+v, %+v", s0, s1)
	}
}

// TestCascadeAdjacency places Figure 11b: shared x, rows y and y+1.
func TestCascadeAdjacency(t *testing.T) {
	res := mustPlace(t, `
def fig11b(a:i8, b:i8, c:i8, d:i8, in:i8) -> (t1:i8) {
    t0:i8 = muladd_co(a, b, in) @dsp(x, y);
    t1:i8 = muladd_ci(c, d, t0) @dsp(x, y+1);
}
`, Options{})
	ss := slots(res.Fn)
	s0, s1 := ss["t0"], ss["t1"]
	if s0.X != s1.X {
		t.Errorf("columns differ: %+v vs %+v", s0, s1)
	}
	if s1.Y != s0.Y+1 {
		t.Errorf("rows not adjacent: %+v vs %+v", s0, s1)
	}
}

func TestLongCascadeChain(t *testing.T) {
	// Chain of 8 (exactly one full column on the test device).
	var b strings.Builder
	b.WriteString("def f(a:i8, b:i8, in:i8) -> (t7:i8) {\n")
	prev := "in"
	for i := 0; i < 8; i++ {
		dest := "t" + string(rune('0'+i))
		b.WriteString(dest + ":i8 = muladd(a, b, " + prev + ") @dsp(x, y+" +
			string(rune('0'+i)) + ");\n")
		prev = dest
	}
	b.WriteString("}\n")
	res := mustPlace(t, b.String(), Options{})
	ss := slots(res.Fn)
	base := ss["t0"]
	for i := 1; i < 8; i++ {
		s := ss["t"+string(rune('0'+i))]
		if s.X != base.X || s.Y != base.Y+i {
			t.Fatalf("chain broken at %d: %+v (base %+v)", i, s, base)
		}
	}
}

func TestLiteralCoordinatesRespected(t *testing.T) {
	res := mustPlace(t, `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    y:i8 = muladd(a, b, c) @dsp(1, 5);
}
`, Options{})
	s := slots(res.Fn)["y"]
	if s.X != 1 || s.Y != 5 {
		t.Errorf("slot = %+v, want (1,5)", s)
	}
}

func TestConflictingLiteralsFail(t *testing.T) {
	f, err := asm.Parse(`
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = muladd(a, b, c) @dsp(0, 0);
    y:i8 = muladd(t0, b, c) @dsp(0, 0);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceContext(context.Background(), f, dev4(t), Options{}); err == nil {
		t.Error("double booking accepted")
	}
}

func TestCapacityExceeded(t *testing.T) {
	// Device has 2 DSP columns x 8 = 16 slices; ask for 17.
	var b strings.Builder
	b.WriteString("def f(a:i8, b:i8, c:i8) -> (t16:i8) {\n")
	prev := "c"
	for i := 0; i <= 16; i++ {
		dest := "t" + itoa(i)
		b.WriteString(dest + ":i8 = muladd(a, b, " + prev + ") @dsp(??, ??);\n")
		prev = dest
	}
	b.WriteString("}\n")
	f, err := asm.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = PlaceContext(context.Background(), f, dev4(t), Options{})
	if err == nil {
		t.Fatal("over-capacity placement accepted")
	}
	if !strings.Contains(err.Error(), "capacity") {
		t.Errorf("error = %v", err)
	}
}

func TestOutOfRangeLiteralFails(t *testing.T) {
	f, err := asm.Parse(`
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    y:i8 = muladd(a, b, c) @dsp(9, 0);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceContext(context.Background(), f, dev4(t), Options{}); err == nil {
		t.Error("x=9 on a 2-DSP-column device accepted")
	}
}

func TestVarRoleConflict(t *testing.T) {
	f, err := asm.Parse(`
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = muladd(a, b, c) @dsp(v, 0);
    y:i8 = muladd(t0, b, c) @dsp(0, v);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceContext(context.Background(), f, dev4(t), Options{}); err == nil {
		t.Error("variable used as both row and column accepted")
	}
}

func TestShrinkCompacts(t *testing.T) {
	res := mustPlace(t, `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = muladd(a, b, c) @dsp(??, ??);
    t1:i8 = muladd(t0, b, c) @dsp(??, ??);
    t2:i8 = muladd(t1, b, c) @dsp(??, ??);
    y:i8 = muladd(t2, b, c) @dsp(??, ??);
}
`, Options{Shrink: true})
	if res.ShrinkIters == 0 {
		t.Error("shrink requested but no iterations ran")
	}
	// Four instructions compact into a minimal bounding box of area 4
	// (either one column of four rows or a 2x2 block).
	maxX, maxY := extent(res.Fn, ir.ResDsp)
	if area := (maxX + 1) * (maxY + 1); area != 4 {
		t.Errorf("bounding box = (%d, %d), area %d, want area 4", maxX, maxY, area)
	}
}

func TestShrinkKeepsConstraints(t *testing.T) {
	res := mustPlace(t, `
def f(a:i8, b:i8, in:i8) -> (t2:i8) {
    t0:i8 = muladd(a, b, in) @dsp(x, y);
    t1:i8 = muladd(a, b, t0) @dsp(x, y+1);
    t2:i8 = muladd(a, b, t1) @dsp(x, y+2);
}
`, Options{Shrink: true})
	ss := slots(res.Fn)
	s0, s1, s2 := ss["t0"], ss["t1"], ss["t2"]
	if s1.Y != s0.Y+1 || s2.Y != s0.Y+2 || s0.X != s1.X || s1.X != s2.X {
		t.Errorf("cascade broken after shrink: %+v %+v %+v", s0, s1, s2)
	}
}

func TestMixedPrims(t *testing.T) {
	res := mustPlace(t, `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = muladd(a, b, c) @dsp(??, ??);
    y:i8 = lutadd(t0, a) @lut(??, ??);
}
`, Options{})
	if ss := slots(res.Fn); ss["t0"].Prim != ir.ResDsp || ss["y"].Prim != ir.ResLut {
		t.Errorf("slots = %+v", ss)
	}
}

func TestPlacementDeterministic(t *testing.T) {
	src := `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = muladd(a, b, c) @dsp(??, ??);
    t1:i8 = muladd(t0, b, c) @dsp(??, ??);
    y:i8 = muladd(t1, b, c) @dsp(??, ??);
}
`
	r1 := mustPlace(t, src, Options{Shrink: true})
	r2 := mustPlace(t, src, Options{Shrink: true})
	if r1.Fn.String() != r2.Fn.String() {
		t.Errorf("nondeterministic placement:\n%s\nvs\n%s", r1.Fn, r2.Fn)
	}
}

func TestWireInstructionsNotPlaced(t *testing.T) {
	res := mustPlace(t, `
def f(a:i8, b:i8) -> (y:i8) {
    t0:i8 = const[3];
    y:i8 = lutadd(t0, a) @lut(??, ??);
}
`, Options{})
	ss := slots(res.Fn)
	if _, ok := ss["t0"]; ok {
		t.Error("wire instruction got a slot")
	}
	if len(ss) != 1 {
		t.Errorf("slots = %v", ss)
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}
