package pipeline

import (
	"context"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/place"
	"reticle/internal/target/ultrascale"
	"reticle/internal/timing"
)

// chainSrc is a combinational DSP chain whose routes dominate timing, so
// relocation has something to improve.
const chainSrc = `
def chain(a:i8, b:i8, c:i8) -> (t3:i8) {
    t0:i8 = dsp_add_i8(a, b) @dsp(??, ??);
    t1:i8 = dsp_add_i8(t0, c) @dsp(2, 100);
    t2:i8 = dsp_add_i8(t1, a) @dsp(??, ??);
    t3:i8 = dsp_add_i8(t2, b) @dsp(??, ??);
}
`

// refined runs refinePlace on f. Refinement starts from the solver's
// placement, which is deterministic, so a plain place.PlaceContext of f
// is that starting point: it returns both placements and the critical
// paths of each, before and after.
func refined(t *testing.T, f *asm.Func, dev *device.Device) (res, plain *place.Result, beforeNs, afterNs float64) {
	t.Helper()
	res, err := refinePlace(context.Background(), f, ultrascale.Target(), dev, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err = place.PlaceContext(context.Background(), f, dev, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	critical := func(p *place.Result) float64 {
		rep, err := timing.Analyze(p.Fn, ultrascale.Target(), dev, timing.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return rep.CriticalNs
	}
	return res, plain, critical(plain), critical(res)
}

func TestRefineImprovesOrMatches(t *testing.T) {
	f, err := asm.Parse(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, plain, beforeNs, afterNs := refined(t, f, ultrascale.Device())
	if afterNs > beforeNs+1e-9 {
		t.Errorf("refinement made timing worse: %.3f -> %.3f", beforeNs, afterNs)
	}
	// t1 is pinned far away (row 100); its free neighbors should move
	// toward it, improving on the naive low-packed placement.
	if res.Fn.String() == plain.Fn.String() {
		t.Errorf("no moves accepted; before %.3f after %.3f", beforeNs, afterNs)
	}
	if afterNs >= beforeNs {
		t.Errorf("expected strict improvement around the pinned outlier: %.3f -> %.3f",
			beforeNs, afterNs)
	}
	if !res.Fn.Resolved() {
		t.Error("refined program unresolved")
	}
}

func TestRefineRespectsPins(t *testing.T) {
	f, err := asm.Parse(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, _ := refined(t, f, ultrascale.Device())
	for _, in := range res.Fn.Body {
		if in.Dest == "t1" {
			if in.Loc.X.Off != 2 || in.Loc.Y.Off != 100 {
				t.Errorf("pinned t1 moved to %s", in.Loc)
			}
		}
	}
}

func TestRefineKeepsPlacementValid(t *testing.T) {
	f, err := asm.Parse(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	dev := ultrascale.Device()
	res, _, _, _ := refined(t, f, dev)
	// The place row records the solver's anchors off the result that
	// carries the refined program.
	if res.Anchors == nil {
		t.Fatalf("result does not carry the solver placement it refined: %+v", res)
	}
	seen := map[[3]int]string{}
	for _, in := range res.Fn.Body {
		if in.IsWire() {
			continue
		}
		key := [3]int{int(in.Loc.Prim), int(in.Loc.X.Off), int(in.Loc.Y.Off)}
		if prev, dup := seen[key]; dup {
			t.Fatalf("%s and %s share a slice after refinement", prev, in.Dest)
		}
		seen[key] = in.Dest
		if in.Loc.X.Off < 0 || int(in.Loc.X.Off) >= dev.NumCols(in.Loc.Prim) ||
			in.Loc.Y.Off < 0 || int(in.Loc.Y.Off) >= dev.Height {
			t.Fatalf("%s out of range: %s", in.Dest, in.Loc)
		}
	}
}

func TestRefineOnCascadedProgramMovesNothingConstrained(t *testing.T) {
	// Cascade chains carry coordinate variables, so their members must be
	// immovable. Build one via the compiler pipeline.
	irf, err := ir.Parse(`
def dot(a0:i8, b0:i8, a1:i8, b1:i8, in:i8) -> (y:i8) {
    m0:i8 = mul(a0, b0) @dsp;
    s0:i8 = add(m0, in) @dsp;
    m1:i8 = mul(a1, b1) @dsp;
    y:i8 = add(m1, s0) @dsp;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	af, err := isel.SelectWithLibrary(irf, lib, isel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Manually constrain both instructions into a chain shape.
	for i := range af.Body {
		if af.Body[i].IsWire() {
			continue
		}
		af.Body[i].Loc.X = asm.VarPlus("x", 0)
		af.Body[i].Loc.Y = asm.VarPlus("y", int64(i))
	}
	res, plain, _, _ := refined(t, af, ultrascale.Device())
	if res.Fn.String() != plain.Fn.String() {
		t.Errorf("moved constrained instructions:\n%s\nfrom\n%s", res.Fn, plain.Fn)
	}
}

func TestRefineAgainstPlainPlacement(t *testing.T) {
	// Sanity: refinement never loses to plain placement under the same
	// timing model.
	f, err := asm.Parse(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, _, plainNs, afterNs := refined(t, f, ultrascale.Device())
	if afterNs > plainNs+1e-9 {
		t.Errorf("refined %.3f worse than plain %.3f", afterNs, plainNs)
	}
}

func TestRefineTinyDevice(t *testing.T) {
	dev, err := device.Standard("tiny", 2, 1, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := asm.Parse(`
def f(a:i8, b:i8) -> (y:i8) {
    t0:i8 = dsp_add_i8(a, b) @dsp(??, ??);
    y:i8 = dsp_add_i8(t0, a) @dsp(??, ??);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, afterNs := refined(t, f, dev)
	if afterNs <= 0 {
		t.Errorf("critical path %.3f ns of %s", afterNs, res.Fn)
	}
}
