package bench

import (
	"testing"

	"reticle/internal/interp"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/target/ultrascale"
)

func TestTensorAddShape(t *testing.T) {
	f, err := TensorAdd(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Inputs) != 1+2*16 || len(f.Outputs) != 16 {
		t.Fatalf("ports = %d in, %d out", len(f.Inputs), len(f.Outputs))
	}
	if computeCount(f) != 32 { // 16 adds + 16 regs
		t.Errorf("compute = %d", computeCount(f))
	}
	if _, _, err := ir.CheckWellFormed(f); err != nil {
		t.Error("ill-formed")
	}
}

func TestTensorAddRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, -4, 3, 13} {
		if _, err := TensorAdd(n); err == nil {
			t.Errorf("TensorAdd(%d) accepted", n)
		}
	}
}

func TestTensorAddSelectsVectorDsp(t *testing.T) {
	f, err := TensorAdd(16)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	af, err := isel.SelectWithLibrary(f, lib, isel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if af.AsmCount() != 4 {
		t.Fatalf("asm count = %d, want 4 fused vector ops:\n%s", af.AsmCount(), af)
	}
	for _, in := range af.Body {
		if !in.IsWire() && in.Name != "dsp_vaddrega_i8v4" {
			t.Errorf("selected %s", in.Name)
		}
	}
}

func TestTensorAddComputes(t *testing.T) {
	f, err := TensorAdd(8)
	if err != nil {
		t.Fatal(err)
	}
	v := ir.Vector(8, 4)
	step := interp.Step{
		"en": ir.BoolValue(true),
		"a0": ir.VectorValue(v, 1, 2, 3, 4),
		"b0": ir.VectorValue(v, 10, 10, 10, 10),
		"a1": ir.VectorValue(v, 5, 6, 7, 8),
		"b1": ir.VectorValue(v, -1, -1, -1, -1),
	}
	out, err := interp.Run(f, interp.Trace{step, step})
	if err != nil {
		t.Fatal(err)
	}
	// Pipelined: results appear one cycle later.
	want0 := ir.VectorValue(v, 11, 12, 13, 14)
	want1 := ir.VectorValue(v, 4, 5, 6, 7)
	if !out[1]["y0"].Equal(want0) || !out[1]["y1"].Equal(want1) {
		t.Errorf("cycle 1: y0=%s y1=%s", out[1]["y0"], out[1]["y1"])
	}
}

func TestDspAddShape(t *testing.T) {
	f, err := DspAdd(8)
	if err != nil {
		t.Fatal(err)
	}
	if computeCount(f) != 8 {
		t.Errorf("compute = %d", computeCount(f))
	}
	fv, err := DspAddVectorized(8)
	if err != nil {
		t.Fatal(err)
	}
	if computeCount(fv) != 2 {
		t.Errorf("vectorized compute = %d", computeCount(fv))
	}
	if _, err := DspAdd(0); err == nil {
		t.Error("DspAdd(0) accepted")
	}
	if _, err := DspAddVectorized(6); err == nil {
		t.Error("DspAddVectorized(6) accepted")
	}
}

func TestTensorDotShape(t *testing.T) {
	f, err := TensorDot(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Per stage: mul + add + reg; 5 arrays x 3 stages = 45 compute.
	if computeCount(f) != 45 {
		t.Errorf("compute = %d", computeCount(f))
	}
	if len(f.Outputs) != 5 {
		t.Errorf("outputs = %d", len(f.Outputs))
	}
	if _, err := TensorDot(0, 3); err == nil {
		t.Error("TensorDot(0,3) accepted")
	}
}

func TestTensorDotSelectsMulAddRega(t *testing.T) {
	f, err := TensorDot(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	af, err := isel.SelectWithLibrary(f, lib, isel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	macs := 0
	for _, in := range af.Body {
		if !in.IsWire() && in.Name == "dsp_muladdrega_i8" {
			macs++
		}
	}
	if macs != 3 {
		t.Errorf("fused registered muladds = %d, want 3:\n%s", macs, af)
	}
}

func TestTensorDotComputes(t *testing.T) {
	// One array, two stages: after enough cycles the dot product of the
	// constant inputs appears.
	f, err := TensorDot(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	i8 := ir.Int(8)
	step := interp.Step{
		"en":   ir.BoolValue(true),
		"a0_0": ir.ScalarValue(i8, 2), "b0_0": ir.ScalarValue(i8, 3),
		"a0_1": ir.ScalarValue(i8, 4), "b0_1": ir.ScalarValue(i8, 5),
	}
	tr := interp.Trace{step, step, step}
	out, err := interp.Run(f, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 latches 2*3=6 after cycle 0; stage 1 latches 4*5+6=26 after
	// cycle 1; visible at cycle 2.
	if got := out[2]["y0"].Scalar(); got != 26 {
		t.Errorf("dot = %d, want 26", got)
	}
}

func TestFSMShape(t *testing.T) {
	for _, s := range []int{3, 5, 7, 9} {
		f, err := FSM(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ir.CheckWellFormed(f); err != nil {
			t.Errorf("fsm %d ill-formed", s)
		}
		// Control logic only: every compute instruction requests LUTs.
		for _, in := range f.Body {
			if in.IsCompute() && in.Res != ir.ResLut {
				t.Errorf("fsm %d: %s bound to %s", s, in.Dest, in.Res)
			}
		}
	}
	if _, err := FSM(1); err == nil {
		t.Error("FSM(1) accepted")
	}
}

func TestFSMWalksStates(t *testing.T) {
	f, err := FSM(3)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(g bool) interp.Step { return interp.Step{"go": ir.BoolValue(g)} }
	out, err := interp.Run(f, interp.Trace{
		mk(true), mk(true), mk(false), mk(true), mk(true),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Observed state lags the transition by one cycle; wraps 0,1,2,0...
	want := []int64{0, 1, 2, 2, 0}
	for i, w := range want {
		if got := out[i]["y"].Scalar(); got != w {
			t.Errorf("cycle %d: state = %d, want %d", i, got, w)
		}
	}
}

func TestFSMSelectsLutOnly(t *testing.T) {
	f, err := FSM(5)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	af, err := isel.SelectWithLibrary(f, lib, isel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range af.Body {
		if !in.IsWire() && in.Loc.Prim != ir.ResLut {
			t.Errorf("fsm selected %s on %s", in.Name, in.Loc.Prim)
		}
	}
}

// computeCount returns the number of compute instructions in f's body.
func computeCount(f *ir.Func) int {
	n := 0
	for _, in := range f.Body {
		if in.IsCompute() {
			n++
		}
	}
	return n
}
