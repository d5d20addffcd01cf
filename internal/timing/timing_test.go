package timing

import (
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/cascade"
	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/place"
	"reticle/internal/target/ultrascale"
)

// analyzeIR runs the full pipeline and then timing.
func analyzeIR(t *testing.T, src string, useCascade bool) Report {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	af, err := isel.Select(f, ultrascale.Target(), isel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if useCascade {
		cas := ultrascale.Cascades()
		af, _, err = cascade.Apply(af, ultrascale.Target(), cascade.Options{Cascades: cas})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := place.Place(af, ultrascale.Device(), place.Options{Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(res.Fn, ultrascale.Target(), ultrascale.Device(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSingleDspAdd(t *testing.T) {
	rep := analyzeIR(t, `
def f(a:i8, b:i8) -> (y:i8) {
    y:i8 = add(a, b) @dsp;
}
`, false)
	// route base + dsp add latency (0.7ns).
	if rep.CriticalNs < 0.7 || rep.CriticalNs > 1.5 {
		t.Errorf("critical = %v", rep)
	}
	if rep.FMaxMHz < 600 || rep.FMaxMHz > 1100 {
		t.Errorf("fmax = %.1f MHz", rep.FMaxMHz)
	}
}

func TestLutSlowerThanDsp(t *testing.T) {
	lut := analyzeIR(t, `
def f(a:i32, b:i32) -> (y:i32) {
    y:i32 = mul(a, b) @lut;
}
`, false)
	dsp := analyzeIR(t, `
def f(a:i24, b:i24) -> (y:i24) {
    y:i24 = mul(a, b) @dsp;
}
`, false)
	if lut.CriticalNs <= dsp.CriticalNs {
		t.Errorf("LUT mul (%.2f ns) should be slower than DSP mul (%.2f ns)",
			lut.CriticalNs, dsp.CriticalNs)
	}
}

// TestCascadeBeatsFabricRouting: a chain of muladds is faster when the
// cascade optimization pins them to adjacent slices with dedicated routes.
func TestCascadeBeatsFabricRouting(t *testing.T) {
	src := `
def dot(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, in:i8) -> (y:i8) {
    t0:i8 = mul(a0, b0) @dsp;
    t1:i8 = add(t0, in) @dsp;
    t2:i8 = mul(a1, b1) @dsp;
    t3:i8 = add(t2, t1) @dsp;
    t4:i8 = mul(a2, b2) @dsp;
    y:i8 = add(t4, t3) @dsp;
}
`
	plain := analyzeIR(t, src, false)
	fast := analyzeIR(t, src, true)
	if fast.CriticalNs >= plain.CriticalNs {
		t.Errorf("cascade (%.3f ns) not faster than fabric (%.3f ns)",
			fast.CriticalNs, plain.CriticalNs)
	}
}

// TestPipelineRegistersCutPaths: registering between stages bounds the
// critical path by the slowest stage, not the sum.
func TestPipelineRegistersCutPaths(t *testing.T) {
	comb := analyzeIR(t, `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = add(a, b) @lut;
    t1:i8 = add(t0, c) @lut;
    y:i8 = add(t1, a) @lut;
}
`, false)
	piped := analyzeIR(t, `
def f(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
    t0:i8 = add(a, b) @lut;
    r0:i8 = reg[0](t0, en) @lut;
    t1:i8 = add(r0, c) @lut;
    r1:i8 = reg[0](t1, en) @lut;
    y:i8 = add(r1, a) @lut;
}
`, false)
	if piped.CriticalNs >= comb.CriticalNs {
		t.Errorf("pipelined (%.3f ns) should beat combinational chain (%.3f ns)",
			piped.CriticalNs, comb.CriticalNs)
	}
}

func TestVectorVsScalarDsp(t *testing.T) {
	scalar := analyzeIR(t, `
def f(a:i8, b:i8, en:bool) -> (y:i8) {
    t0:i8 = add(a, b) @dsp;
    y:i8 = reg[0](t0, en) @dsp;
}
`, false)
	vector := analyzeIR(t, `
def f(a:i8<4>, b:i8<4>, en:bool) -> (y:i8<4>) {
    t0:i8<4> = add(a, b) @dsp;
    y:i8<4> = reg[0](t0, en) @dsp;
}
`, false)
	// "vectorized configurations ... are slightly slower than scalar
	// operations on DSPs" (§7.2).
	if !(vector.CriticalNs > scalar.CriticalNs) {
		t.Errorf("vector (%.3f) should be slightly slower than scalar (%.3f)",
			vector.CriticalNs, scalar.CriticalNs)
	}
	if vector.CriticalNs > scalar.CriticalNs*1.6 {
		t.Errorf("vector (%.3f) should be only slightly slower than scalar (%.3f)",
			vector.CriticalNs, scalar.CriticalNs)
	}
}

func TestWireOnlyDesign(t *testing.T) {
	rep := analyzeIR(t, `
def f(a:i8) -> (y:i8) {
    y:i8 = sll[1](a);
}
`, false)
	if rep.CriticalNs <= 0 || rep.FMaxMHz <= 0 {
		t.Errorf("degenerate report: %+v", rep)
	}
}

func TestPathReported(t *testing.T) {
	rep := analyzeIR(t, `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = mul(a, b) @lut;
    y:i8 = add(t0, c) @lut;
}
`, false)
	if len(rep.Path) == 0 {
		t.Fatalf("no path: %+v", rep)
	}
	if !strings.Contains(rep.String(), "MHz") {
		t.Errorf("String = %q", rep.String())
	}
}

func TestUnplacedRejected(t *testing.T) {
	f, err := asm.Parse(`
def f(a:i8, b:i8) -> (y:i8) {
    y:i8 = dsp_add_i8(a, b) @dsp(??, ??);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(f, ultrascale.Target(), ultrascale.Device(), DefaultOptions()); err == nil {
		t.Error("Analyze accepted unresolved locations")
	}
}

func TestDistanceMatters(t *testing.T) {
	// Same netlist, two hand placements: adjacent vs far apart.
	near := `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = dsp_add_i8(a, b) @dsp(0, 0);
    y:i8 = dsp_add_i8(t0, c) @dsp(0, 1);
}
`
	far := `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = dsp_add_i8(a, b) @dsp(0, 0);
    y:i8 = dsp_add_i8(t0, c) @dsp(2, 110);
}
`
	dev := ultrascale.Device()
	var reps [2]Report
	for i, src := range []string{near, far} {
		f, err := asm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := place.Place(f, dev, place.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Analyze(res.Fn, ultrascale.Target(), dev, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	if reps[1].CriticalNs <= reps[0].CriticalNs {
		t.Errorf("far placement (%.3f) should be slower than near (%.3f)",
			reps[1].CriticalNs, reps[0].CriticalNs)
	}
}

func TestDefaultOptionsApplied(t *testing.T) {
	f, err := asm.Parse(`
def f(a:i8, b:i8) -> (y:i8) {
    y:i8 = dsp_add_i8(a, b) @dsp(0, 0);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(f, ultrascale.Target(), ultrascale.Device(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CriticalNs == 0 {
		t.Error("zero options not defaulted")
	}
}

func TestDeviceGeometryUsed(t *testing.T) {
	// Sanity: a tiny device and the big part give different route costs
	// for the same per-prim coordinates when global positions differ.
	small, err := device.Standard("tiny", 2, 2, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := asm.Parse(`
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = dsp_add_i8(a, b) @dsp(0, 0);
    y:i8 = dsp_add_i8(t0, c) @dsp(1, 0);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	repSmall, err := Analyze(f, ultrascale.Target(), small, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	repBig, err := Analyze(f, ultrascale.Target(), ultrascale.Device(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if repSmall.CriticalNs >= repBig.CriticalNs {
		t.Errorf("adjacent DSP columns on tiny device (%.3f) should route faster than spread columns on xczu3eg (%.3f)",
			repSmall.CriticalNs, repBig.CriticalNs)
	}
}
