package agilex

import (
	"fmt"
	"testing"

	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/target/ultrascale"
	"reticle/internal/tdl"
)

func TestTargetIsSingleton(t *testing.T) {
	if Target() != Target() {
		t.Error("Target() is not a singleton")
	}
	if Device() != Device() {
		t.Error("Device() is not a singleton")
	}
	if Target() == ultrascale.Target() {
		t.Error("agilex and ultrascale share a target")
	}
}

func TestDeviceGeometry(t *testing.T) {
	d := Device()
	if d.Name != "agf014" {
		t.Errorf("device name = %q", d.Name)
	}
	if got := d.Capacity(ir.ResDsp); got != 400 {
		t.Errorf("DSP slices = %d, want 400", got)
	}
	if got := d.LutCapacity(); got != 96000 {
		t.Errorf("ALMs = %d, want 96000", got)
	}
	if u := ultrascale.Device(); u.Height == d.Height && u.NumCols(ir.ResDsp) == d.NumCols(ir.ResDsp) {
		t.Error("agilex geometry identical to ultrascale")
	}
}

// TestMultiplierWidthLimit pins the family's defining difference: the
// 18x19 DSP multiplier. 24-bit products must only have a fabric home.
func TestMultiplierWidthLimit(t *testing.T) {
	tgt := Target()
	for _, name := range []string{"dsp_mul_i24", "dsp_muladd_i24", "dsp_muladdrega_i24"} {
		if _, ok := tgt.Lookup(name); ok {
			t.Errorf("%s must not exist: the Agilex multiplier stops at 18 bits", name)
		}
	}
	for _, name := range []string{"dsp_mul_i8", "dsp_mul_i16", "alm_mul_i24", "dsp_add_i24"} {
		if _, ok := tgt.Lookup(name); !ok {
			t.Errorf("missing definition %s", name)
		}
	}
}

// TestPortabilitySelection compiles the §4.2 kernel's 24-bit multiply on
// both families and checks the selection visibly diverges: DSP on
// UltraScale, ALM fabric on Agilex.
func TestPortabilitySelection(t *testing.T) {
	f, err := ir.Parse(`
def wide(k:i24, m:i24) -> (z:i24) {
    z:i24 = mul(k, m) @??;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := isel.NewLibrary(Target())
	if err != nil {
		t.Fatal(err)
	}
	onAgilex, err := isel.SelectWithLibrary(f, lib, isel.Options{})
	if err != nil {
		t.Fatalf("agilex selection: %v", err)
	}
	ultraLib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	onUltra, err := isel.SelectWithLibrary(f, ultraLib, isel.Options{})
	if err != nil {
		t.Fatalf("ultrascale selection: %v", err)
	}
	if got := onAgilex.Body[0]; got.Name != "alm_mul_i24" || got.Loc.Prim != ir.ResLut {
		t.Errorf("agilex selected %s @%s, want alm_mul_i24 @lut", got.Name, got.Loc.Prim)
	}
	if got := onUltra.Body[0]; got.Name != "dsp_mul_i24" || got.Loc.Prim != ir.ResDsp {
		t.Errorf("ultrascale selected %s @%s, want dsp_mul_i24 @dsp", got.Name, got.Loc.Prim)
	}
}

func TestEveryDefCompilesToPattern(t *testing.T) {
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
		for _, name := range []string{base, v.Co, v.Ci, v.CoCi} {
			if _, ok := tgt.Lookup(name); !ok {
				t.Errorf("cascade name %s missing from target", name)
			}
		}
	}
	for _, w := range []int{8, 16} {
		if _, ok := cas[fmt.Sprintf("dsp_muladd_i%d", w)]; !ok {
			t.Errorf("dsp_muladd_i%d not cascaded", w)
		}
	}
}

func TestSourceRoundTrips(t *testing.T) {
	reparsed, err := tdl.Parse("agilex", Source())
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
	}
}
