package ultrascale

import (
	"fmt"
	"slices"
	"testing"

	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/tdl"
)

func TestTargetIsSingleton(t *testing.T) {
	// reticle.NewCompilerWith detects the bundled family by pointer
	// identity; Target must return the same object every call.
	if Target() != Target() {
		t.Error("Target() is not a singleton")
	}
	if Device() != Device() {
		t.Error("Device() is not a singleton")
	}
}

func TestDeviceGeometry(t *testing.T) {
	d := Device()
	if d.Name != "xczu3eg" {
		t.Errorf("device name = %q", d.Name)
	}
	if got := d.Capacity(ir.ResDsp); got != 360 {
		t.Errorf("DSP slices = %d, want 360", got)
	}
	if got := d.LutCapacity(); got != 71040 {
		t.Errorf("LUTs = %d, want 71040", got)
	}
}

// TestInstructionSetCoverage pins the opcodes the rest of the system
// compiles against: the paper's Fig. 9 set plus the widths the pipeline
// tests and benchmarks rely on.
func TestInstructionSetCoverage(t *testing.T) {
	tgt := Target()
	want := []string{
		// DSP scalar set at every DSP width.
		"dsp_add_i8", "dsp_sub_i8", "dsp_mul_i8", "dsp_reg_i8", "dsp_addrega_i8",
		"dsp_add_i16", "dsp_mul_i16", "dsp_add_i24", "dsp_mul_i24",
		// Fused accumulators and their cascade variants.
		"dsp_muladd_i8", "dsp_muladd_i8_co", "dsp_muladd_i8_ci", "dsp_muladd_i8_coci",
		"dsp_muladdrega_i8", "dsp_muladdrega_i8_co", "dsp_muladdrega_i8_ci", "dsp_muladdrega_i8_coci",
		// SIMD set.
		"dsp_vadd_i8v4", "dsp_vsub_i8v4", "dsp_vreg_i8v4", "dsp_vaddrega_i8v4",
		"dsp_vadd_i8v2",
		// Fabric set at the widths codegen and timing exercise.
		"lut_add_i8", "lut_add_i32", "lut_mul_i4", "lut_mul_i32",
		"lut_and_bool", "lut_not_i8", "lut_mux_i8", "lut_reg_i8", "lut_lt_i8",
		"lut_eq_i16", "lut_addrega_i8",
	}
	for _, name := range want {
		if _, ok := tgt.Lookup(name); !ok {
			t.Errorf("missing definition %s", name)
		}
	}
	// Conditional inversion has no DSP home: selection must fail loudly
	// for not @dsp rather than silently mapping it.
	for _, w := range []int{8, 16} {
		if _, ok := tgt.Lookup(fmt.Sprintf("dsp_not_i%d", w)); ok {
			t.Errorf("dsp_not_i%d must not exist (TestSelectionErrorSurfaces)", w)
		}
	}
}

// TestRegisteredAddMatchesCombinationalLatency: the registered add's
// latency is its combinational cone; the register itself costs setup
// time in the timing model, not logic depth.
func TestRegisteredAddMatchesCombinationalLatency(t *testing.T) {
	tgt := Target()
	for _, w := range []int{8, 16, 24} {
		add, _ := tgt.Lookup(fmt.Sprintf("dsp_add_i%d", w))
		rega, _ := tgt.Lookup(fmt.Sprintf("dsp_addrega_i%d", w))
		if add == nil || rega == nil {
			t.Fatalf("missing add defs at width %d", w)
		}
		if add.Latency != rega.Latency {
			t.Errorf("width %d: addrega latency %d != add latency %d", w, rega.Latency, add.Latency)
		}
	}
}

func TestEveryDefCompilesToPattern(t *testing.T) {
	// NewLibrary compiles every definition into a selection pattern; tree
	// bodies and exact types are enforced there.
	if _, err := isel.NewLibrary(Target()); err != nil {
		t.Fatalf("library: %v", err)
	}
}

func TestCascadesMatchTarget(t *testing.T) {
	tgt := Target()
	cas := Cascades()
	if len(cas) == 0 {
		t.Fatal("no cascade metadata")
	}
	for base, v := range cas {
		bd, ok := tgt.Lookup(base)
		if !ok {
			t.Errorf("cascade base %s missing from target", base)
			continue
		}
		if !slices.Contains(bd.Inputs, ir.Port{Name: "c", Type: bd.Output.Type}) {
			t.Errorf("cascade base %s has no accumulator port c of its output type", base)
		}
		for _, name := range []string{v.Co, v.Ci, v.CoCi} {
			if _, ok := tgt.Lookup(name); !ok {
				t.Errorf("variant %s of %s missing from target", name, base)
			}
		}
	}
	// The returned map is a copy.
	for k := range cas {
		delete(cas, k)
	}
	if len(Cascades()) == 0 {
		t.Error("Cascades returned a shared map")
	}
}

func TestSourceRoundTrips(t *testing.T) {
	src := Source()
	if src == "" {
		t.Fatal("empty source")
	}
	reparsed, err := tdl.Parse("ultrascale", src)
	if err != nil {
		t.Fatalf("Source() does not reparse: %v", err)
	}
	if reparsed.Len() != Target().Len() {
		t.Errorf("reparsed %d defs, target has %d", reparsed.Len(), Target().Len())
	}
}

func TestCostsArePositive(t *testing.T) {
	for _, d := range Target().Defs() {
		if d.Area <= 0 || d.Latency <= 0 {
			t.Errorf("%s: area %d, latency %d", d.Name, d.Area, d.Latency)
		}
		if d.Prim != ir.ResLut && d.Prim != ir.ResDsp {
			t.Errorf("%s: primitive %s", d.Name, d.Prim)
		}
	}
}
