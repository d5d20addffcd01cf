package vivado

import (
	"testing"

	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/timing"
)

func smallDev(t *testing.T) *device.Device {
	t.Helper()
	d, err := device.Standard("small", 8, 2, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fast anneal options for tests.
func fastAnneal() AnnealOptions {
	return AnnealOptions{Seed: 1, MovesPerCell: 50, MinMoves: 1000}
}

func mustSynth(t *testing.T, src string, dev *device.Device, hint bool) *Netlist {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Synthesize(f, dev, hint)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBaseMapsAddToLuts(t *testing.T) {
	net := mustSynth(t, `
def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??; }
`, smallDev(t), false)
	if net.DspsUsed != 0 {
		t.Errorf("base add used %d DSPs, cost model should pick LUTs", net.DspsUsed)
	}
	if net.LutsUsed != 8 {
		t.Errorf("LUTs = %d, want 8", net.LutsUsed)
	}
}

func TestHintMapsAddToDsp(t *testing.T) {
	net := mustSynth(t, `
def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??; }
`, smallDev(t), true)
	if net.DspsUsed != 1 || net.LutsUsed != 0 {
		t.Errorf("hint add: %d DSPs, %d LUTs", net.DspsUsed, net.LutsUsed)
	}
}

func TestMulAlwaysPrefersDsp(t *testing.T) {
	for _, hint := range []bool{false, true} {
		net := mustSynth(t, `
def f(a:i8, b:i8) -> (y:i8) { y:i8 = mul(a, b) @??; }
`, smallDev(t), hint)
		if net.DspsUsed != 1 {
			t.Errorf("hint=%v: mul used %d DSPs", hint, net.DspsUsed)
		}
	}
}

// TestSilentFallback reproduces the §2 finding: when scalar DSP inference
// exhausts the device, the tool silently rewrites the rest onto LUTs.
func TestSilentFallback(t *testing.T) {
	dev := smallDev(t) // 32 DSP slices
	b := ir.NewBuilder("many")
	i8 := ir.Int(8)
	var outs []string
	for i := 0; i < 40; i++ {
		a := b.Input(name2("a", i), i8)
		c := b.Input(name2("b", i), i8)
		y := b.Add(i8, a, c, ir.ResAny)
		outs = append(outs, y)
	}
	for _, o := range outs {
		b.Output(o, i8)
	}
	f := b.MustBuild()
	net, err := Synthesize(f, dev, true)
	if err != nil {
		t.Fatal(err)
	}
	if net.DspsUsed != 32 {
		t.Errorf("DSPs = %d, want all 32", net.DspsUsed)
	}
	if net.LutsUsed != 8*8 {
		t.Errorf("LUTs = %d, want 64 (8 spilled adders)", net.LutsUsed)
	}
}

// TestNoVectorization: a vector add scalarizes into one DSP per lane even
// with hints — behavioral tools never pick SIMD configurations (§7.2).
func TestNoVectorization(t *testing.T) {
	net := mustSynth(t, `
def f(a:i8<4>, b:i8<4>) -> (y:i8<4>) { y:i8<4> = add(a, b) @??; }
`, smallDev(t), true)
	if net.DspsUsed != 4 {
		t.Errorf("vector add used %d DSPs, want 4 (scalarized)", net.DspsUsed)
	}
}

func TestHintFusesMulAdd(t *testing.T) {
	net := mustSynth(t, `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    y:i8 = add(t0, c) @??;
}
`, smallDev(t), true)
	if net.DspsUsed != 1 {
		t.Errorf("hint muladd used %d DSPs, want 1 fused", net.DspsUsed)
	}
}

func TestBaseDoesNotFuse(t *testing.T) {
	net := mustSynth(t, `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    y:i8 = add(t0, c) @??;
}
`, smallDev(t), false)
	// Base: mul on DSP, add on LUTs.
	if net.DspsUsed != 1 || net.LutsUsed != 8 {
		t.Errorf("base: %d DSPs, %d LUTs", net.DspsUsed, net.LutsUsed)
	}
}

func TestHintAbsorbsRegisters(t *testing.T) {
	net := mustSynth(t, `
def f(a:i8, b:i8, en:bool) -> (y:i8) {
    t0:i8 = add(a, b) @??;
    y:i8 = reg[0](t0, en) @??;
}
`, smallDev(t), true)
	stateDsp := 0
	for _, c := range net.LiveCells() {
		if c.Kind == CellDsp && c.Stateful {
			stateDsp++
		}
	}
	if stateDsp != 1 {
		t.Errorf("registered DSPs = %d, want 1 (absorbed FF)", stateDsp)
	}
}

func TestHintInfersCascades(t *testing.T) {
	net := mustSynth(t, `
def dot(a0:i8, b0:i8, a1:i8, b1:i8, in:i8) -> (y:i8) {
    m0:i8 = mul(a0, b0) @??;
    s0:i8 = add(m0, in) @??;
    m1:i8 = mul(a1, b1) @??;
    y:i8 = add(m1, s0) @??;
}
`, smallDev(t), true)
	cascades := 0
	for _, c := range net.LiveCells() {
		if c.CascadeWith >= 0 {
			cascades++
		}
	}
	if cascades != 1 {
		t.Errorf("cascade links = %d, want 1", cascades)
	}
}

// TestLutPacking: a chain of single-use boolean ops packs into one LUT —
// the logic optimization that Reticle's per-op mapping lacks.
func TestLutPacking(t *testing.T) {
	net := mustSynth(t, `
def ctrl(a:bool, b:bool, c:bool, d:bool) -> (y:bool) {
    t0:bool = and(a, b) @??;
    t1:bool = or(t0, c) @??;
    y:bool = xor(t1, d) @??;
}
`, smallDev(t), false)
	if net.LutsUsed != 1 {
		t.Errorf("LUTs = %d, want 1 (packed a 4-input cone)", net.LutsUsed)
	}
}

func TestLutPackingRespectsFanout(t *testing.T) {
	net := mustSynth(t, `
def ctrl(a:bool, b:bool, c:bool) -> (y:bool, z:bool) {
    t0:bool = and(a, b) @??;
    y:bool = or(t0, c) @??;
    z:bool = xor(t0, c) @??;
}
`, smallDev(t), false)
	// t0 feeds two cones: it cannot be duplicated away by this pass.
	if net.LutsUsed != 3 {
		t.Errorf("LUTs = %d, want 3", net.LutsUsed)
	}
}

func TestLutPackingFanInLimit(t *testing.T) {
	// Seven distinct inputs cannot pack into one LUT6.
	net := mustSynth(t, `
def wide(a:bool, b:bool, c:bool, d:bool, e:bool, f:bool, g:bool) -> (y:bool) {
    t0:bool = and(a, b) @??;
    t1:bool = and(c, d) @??;
    t2:bool = and(e, f) @??;
    t3:bool = and(t0, t1) @??;
    t4:bool = and(t2, g) @??;
    y:bool = and(t3, t4) @??;
}
`, smallDev(t), false)
	if net.LutsUsed < 2 {
		t.Errorf("LUTs = %d; a 7-input function needs at least 2 LUT6s", net.LutsUsed)
	}
}

func TestCompileEndToEnd(t *testing.T) {
	f, err := ir.Parse(`
def f(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    y:i8 = reg[0](t1, en) @??;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(f, smallDev(t), Options{Hint: true, Anneal: fastAnneal()})
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalNs <= 0 || res.FMaxMHz <= 0 {
		t.Errorf("timing: %+v", res)
	}
	if res.Moves == 0 || res.SynthDur+res.PlaceDur <= 0 {
		t.Errorf("compile effort not recorded: %+v", res)
	}
}

func TestAnnealImprovesWirelength(t *testing.T) {
	// A pipeline of dependent adders: annealing should bring the critical
	// path at or below the unoptimized sequential initial placement.
	b := ir.NewBuilder("chain")
	i8 := ir.Int(8)
	a := b.Input("a", i8)
	en := b.Input("en", ir.Bool())
	cur := a
	for i := 0; i < 30; i++ {
		s := b.Add(i8, cur, a, ir.ResAny)
		cur = b.Reg(i8, s, en, nil, ir.ResAny)
	}
	b.Output(cur, i8)
	f := b.MustBuild()
	dev := smallDev(t)

	netNoAnneal, err := Synthesize(f, dev, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceNetlist(netNoAnneal, dev, AnnealOptions{Seed: 1, MovesPerCell: 1, MinMoves: 1}); err != nil {
		t.Fatal(err)
	}
	critBefore, err := AnalyzeNetlist(netNoAnneal, dev, timingDefaults())
	if err != nil {
		t.Fatal(err)
	}

	netAnneal, err := Synthesize(f, dev, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceNetlist(netAnneal, dev, AnnealOptions{Seed: 1, MovesPerCell: 2000, MinMoves: 50_000}); err != nil {
		t.Fatal(err)
	}
	critAfter, err := AnalyzeNetlist(netAnneal, dev, timingDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if critAfter > critBefore*1.05 {
		t.Errorf("annealing made things worse: %.3f -> %.3f ns", critBefore, critAfter)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	f, err := ir.Parse(`
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    y:i8 = add(t0, c) @??;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Compile(f, smallDev(t), Options{Anneal: fastAnneal()})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compile(f, smallDev(t), Options{Anneal: fastAnneal()})
	if err != nil {
		t.Fatal(err)
	}
	if r1.CriticalNs != r2.CriticalNs {
		t.Errorf("nondeterministic: %.4f vs %.4f", r1.CriticalNs, r2.CriticalNs)
	}
}

func TestCapacityError(t *testing.T) {
	dev, err := device.Standard("tiny", 1, 1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder("big")
	i8 := ir.Int(8)
	var outs []string
	for i := 0; i < 10; i++ {
		a := b.Input(name2("a", i), i8)
		c := b.Input(name2("b", i), i8)
		outs = append(outs, b.Add(i8, a, c, ir.ResAny))
	}
	for _, o := range outs {
		b.Output(o, i8)
	}
	f := b.MustBuild()
	net, err := Synthesize(f, dev, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceNetlist(net, dev, fastAnneal()); err == nil {
		t.Error("over-capacity netlist placed")
	}
}

func TestRejectsIllFormed(t *testing.T) {
	f, err := ir.Parse(`
def bad(x:bool) -> (t1:i8) {
    t0:i8 = const[4];
    t1:i8 = add(t1, t0) @??;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(f, smallDev(t), false); err == nil {
		t.Error("Synthesize accepted combinational cycle")
	}
}

func name2(p string, i int) string {
	return p + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func timingDefaults() timing.Options { return timing.Options{} }

// TestRegisterSplitAcrossCat: a flat register fed by a concatenation of
// DSP outputs splits into per-driver DSP pipeline registers (hint mode) —
// the shape a behavioral front end produces for flattened vectors.
func TestRegisterSplitAcrossCat(t *testing.T) {
	net := mustSynth(t, `
def f(a0:i8, b0:i8, a1:i8, b1:i8, en:bool) -> (y:i16) {
    s0:i8 = add(a0, b0) @??;
    s1:i8 = add(a1, b1) @??;
    w:i16 = cat(s0, s1);
    y:i16 = reg[0](w, en) @??;
}
`, smallDev(t), true)
	registered := 0
	for _, c := range net.LiveCells() {
		if c.Kind == CellDsp && c.Stateful {
			registered++
		}
		if c.Kind == CellFF {
			t.Errorf("FF survived: %s", c.Name)
		}
	}
	if registered != 2 {
		t.Errorf("registered DSPs = %d, want 2 (split across the cat)", registered)
	}
}

func TestRegisterSplitBlockedByFanout(t *testing.T) {
	// s0 also feeds an output: splitting would change its timing class.
	net := mustSynth(t, `
def f(a0:i8, b0:i8, a1:i8, b1:i8, en:bool) -> (y:i16, s0:i8) {
    s0:i8 = add(a0, b0) @??;
    s1:i8 = add(a1, b1) @??;
    w:i16 = cat(s0, s1);
    y:i16 = reg[0](w, en) @??;
}
`, smallDev(t), true)
	for _, c := range net.LiveCells() {
		if c.Kind == CellDsp && c.Stateful {
			t.Errorf("split happened despite external fanout: %s", c.Name)
		}
	}
}

func TestCellKindStrings(t *testing.T) {
	if CellWire.String() != "wire" || CellLut.String() != "lut" ||
		CellFF.String() != "ff" || CellDsp.String() != "dsp" {
		t.Error("kind names wrong")
	}
	if CellKind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestNetlistLive(t *testing.T) {
	net := mustSynth(t, `
def f(a:i8, b:i8) -> (y:i8) { y:i8 = add(a, b) @??; }
`, smallDev(t), false)
	live := net.LiveCells()
	if len(live) == 0 || live[0] != net.Cells[0] {
		t.Error("cell 0 should be live")
	}
	for _, c := range live {
		if c.dead {
			t.Errorf("dead cell %d listed live", c.ID)
		}
	}
}

func TestDefaultAnnealOptions(t *testing.T) {
	o := DefaultAnnealOptions()
	if o.MovesPerCell == 0 || o.MinMoves == 0 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestLutMulFallbackDelay(t *testing.T) {
	// Exhaust the DSP budget so a multiply lands on LUTs (covers lutMulNs).
	dev, err := device.Standard("one", 4, 1, 1, 8) // 1 DSP slice
	if err != nil {
		t.Fatal(err)
	}
	net := mustSynth(t, `
def f(a:i8, b:i8) -> (y:i8, z:i8) {
    y:i8 = mul(a, b) @??;
    z:i8 = mul(b, a) @??;
}
`, dev, false)
	if net.DspsUsed != 1 || net.LutsUsed != 64 {
		t.Errorf("dsps=%d luts=%d, want 1 DSP + 64-LUT multiplier", net.DspsUsed, net.LutsUsed)
	}
}

func TestComparatorDelayCovered(t *testing.T) {
	net := mustSynth(t, `
def f(a:i16, b:i16) -> (y:bool) { y:bool = lt(a, b) @??; }
`, smallDev(t), false)
	if net.LutsUsed != 16 {
		t.Errorf("luts = %d", net.LutsUsed)
	}
}
