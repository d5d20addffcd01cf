package passes

import (
	"math/rand"
	"testing"

	"reticle/internal/interp"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/target/ultrascale"
)

func mustParse(t *testing.T, src string) *ir.Func {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fig16a is the paper's Figure 16a: four independent scalar additions.
const fig16a = `
def fig16(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, a3:i8, b3:i8) ->
        (t0:i8, t1:i8, t2:i8, t3:i8) {
    t0:i8 = add(a0, b0) @??;
    t1:i8 = add(a1, b1) @??;
    t2:i8 = add(a2, b2) @??;
    t3:i8 = add(a3, b3) @??;
}
`

func TestVectorizeFig16(t *testing.T) {
	f := mustParse(t, fig16a)
	out, st, err := Vectorize(f, VectorizeOptions{Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 1 || st.Absorbed != 4 {
		t.Fatalf("stats = %+v\n%s", st, out)
	}
	vecs := 0
	for _, in := range out.Body {
		if in.Op == ir.OpAdd {
			if !in.Type.IsVector() {
				t.Errorf("scalar add survived: %s", in)
			}
			vecs++
		}
	}
	if vecs != 1 {
		t.Errorf("vector adds = %d, want 1:\n%s", vecs, out)
	}
}

func TestVectorizePreservesSemantics(t *testing.T) {
	f := mustParse(t, fig16a)
	out, _, err := Vectorize(f, VectorizeOptions{Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	i8 := ir.Int(8)
	trace := make(interp.Trace, 10)
	for i := range trace {
		step := interp.Step{}
		for _, p := range f.Inputs {
			step[p.Name] = ir.ScalarValue(i8, rng.Int63())
		}
		trace[i] = step
	}
	want, err := interp.Run(f, trace)
	if err != nil {
		t.Fatal(err)
	}
	got, err := interp.Run(out, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !interp.Equal(want, got) {
		t.Error("vectorization changed semantics")
	}
}

// TestVectorizeEnablesSIMDSelection: after the pass, selection maps the
// group to a single SIMD DSP instruction — the Fig. 16 payoff.
func TestVectorizeEnablesSIMDSelection(t *testing.T) {
	f := mustParse(t, fig16a)
	out, _, err := Vectorize(f, VectorizeOptions{Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	af, err := isel.SelectWithLibrary(out, lib, isel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dsps := 0
	for _, in := range af.Body {
		if !in.IsWire() && in.Name == "dsp_vadd_i8v4" {
			dsps++
		}
	}
	if dsps != 1 {
		t.Errorf("SIMD instructions = %d, want 1:\n%s", dsps, af)
	}
}

func TestVectorizeRespectsDependences(t *testing.T) {
	// t1 depends on t0: they must not join one vector op.
	f := mustParse(t, `
def dep(a:i8, b:i8) -> (t3:i8) {
    t0:i8 = add(a, b) @??;
    t1:i8 = add(t0, b) @??;
    t2:i8 = add(t1, b) @??;
    t3:i8 = add(t2, b) @??;
}
`)
	out, st, err := Vectorize(f, VectorizeOptions{Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 0 {
		t.Errorf("grouped dependent adds: %+v\n%s", st, out)
	}
}

func TestVectorizeIndirectDependence(t *testing.T) {
	// t2 depends on t0 through a mul: still no grouping.
	f := mustParse(t, `
def dep(a:i8, b:i8, c:i8, d:i8) -> (t2:i8, t3:i8) {
    t0:i8 = add(a, b) @??;
    m:i8 = mul(t0, c) @??;
    t2:i8 = add(m, d) @??;
    t3:i8 = add(c, d) @??;
}
`)
	_, st, err := Vectorize(f, VectorizeOptions{Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// t0 and t2 are dependent; t0+t3 or t2+t3 may group.
	if st.Groups > 1 {
		t.Errorf("stats = %+v", st)
	}
	for _, g := range []string{} {
		_ = g
	}
}

func TestVectorizeRegGroup(t *testing.T) {
	f := mustParse(t, `
def regs(a:i8, b:i8, c:i8, d:i8, en:bool) -> (r0:i8, r1:i8, r2:i8, r3:i8) {
    r0:i8 = reg[1](a, en) @??;
    r1:i8 = reg[2](b, en) @??;
    r2:i8 = reg[3](c, en) @??;
    r3:i8 = reg[4](d, en) @??;
}
`)
	out, st, err := Vectorize(f, VectorizeOptions{Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 1 {
		t.Fatalf("stats = %+v\n%s", st, out)
	}
	for _, in := range out.Body {
		if in.Op == ir.OpReg {
			if len(in.Attrs) != 4 || in.Attrs[0] != 1 || in.Attrs[3] != 4 {
				t.Errorf("vector reg inits = %v", in.Attrs)
			}
		}
	}
	// Semantics: registers still hold their initial values at cycle 0.
	i8 := ir.Int(8)
	step := interp.Step{
		"a": ir.ScalarValue(i8, 9), "b": ir.ScalarValue(i8, 9),
		"c": ir.ScalarValue(i8, 9), "d": ir.ScalarValue(i8, 9),
		"en": ir.BoolValue(true),
	}
	got, err := interp.Run(out, interp.Trace{step, step})
	if err != nil {
		t.Fatal(err)
	}
	if got[0]["r2"].Scalar() != 3 || got[1]["r2"].Scalar() != 9 {
		t.Errorf("r2 trace = %s, %s", got[0]["r2"], got[1]["r2"])
	}
}

func TestVectorizeDifferentEnablesNotGrouped(t *testing.T) {
	f := mustParse(t, `
def regs(a:i8, b:i8, e0:bool, e1:bool) -> (r0:i8, r1:i8) {
    r0:i8 = reg[0](a, e0) @??;
    r1:i8 = reg[0](b, e1) @??;
}
`)
	_, st, err := Vectorize(f, VectorizeOptions{Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 0 {
		t.Errorf("grouped regs with different enables: %+v", st)
	}
}

func TestVectorizeMixedResourcesNotGrouped(t *testing.T) {
	f := mustParse(t, `
def mixed(a:i8, b:i8, c:i8, d:i8) -> (t0:i8, t1:i8) {
    t0:i8 = add(a, b) @lut;
    t1:i8 = add(c, d) @dsp;
}
`)
	_, st, err := Vectorize(f, VectorizeOptions{Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 0 {
		t.Errorf("grouped across resources: %+v", st)
	}
}

func TestVectorizeBadLanes(t *testing.T) {
	f := mustParse(t, fig16a)
	if _, _, err := Vectorize(f, VectorizeOptions{Lanes: 1}); err == nil {
		t.Error("lanes=1 accepted")
	}
}

func TestPipelineInsertsRegisters(t *testing.T) {
	f := mustParse(t, `
def chain(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    y:i8 = add(t0, c) @??;
}
`)
	out, n, err := Pipeline(f, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("inserted = %d, want 2\n%s", n, out)
	}
	regs := 0
	for _, in := range out.Body {
		if in.Op == ir.OpReg {
			regs++
		}
	}
	if regs != 2 {
		t.Errorf("regs = %d", regs)
	}
}

// TestPipelineComputesDelayedFunction mirrors Fig. 14: the pipelined
// program computes the same values, three cycles later.
func TestPipelineComputesDelayedFunction(t *testing.T) {
	f := mustParse(t, `
def mac(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    y:i8 = add(t0, c) @??;
}
`)
	out, _, err := Pipeline(f, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i8 := ir.Int(8)
	step := interp.Step{
		"a": ir.ScalarValue(i8, 3),
		"b": ir.ScalarValue(i8, 4),
		"c": ir.ScalarValue(i8, 5),
	}
	tr := interp.Trace{step, step, step}
	got, err := interp.Run(out, tr)
	if err != nil {
		t.Fatal(err)
	}
	// mul registered (1 cycle), add registered (1 more): y at cycle 2.
	if got[2]["y"].Scalar() != 17 {
		t.Errorf("pipelined y = %s at cycle 2", got[2]["y"])
	}
	if got[0]["y"].Scalar() != 0 {
		t.Errorf("cycle 0 y = %s, want initial 0", got[0]["y"])
	}
}

func TestPipelineCustomEnable(t *testing.T) {
	f := mustParse(t, `
def g(a:i8, en:bool) -> (y:i8) {
    y:i8 = add(a, a) @??;
}
`)
	out, _, err := Pipeline(f, PipelineOptions{Enable: "en"})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range out.Body {
		if in.Op == ir.OpReg && in.Args[1] != "en" {
			t.Errorf("reg enable = %s", in.Args[1])
		}
	}
	if _, _, err := Pipeline(f, PipelineOptions{Enable: "a"}); err == nil {
		t.Error("non-bool enable accepted")
	}
}

func TestBindPolicies(t *testing.T) {
	f := mustParse(t, `
def h(a:i8, b:i8, c:bool) -> (y:i8) {
    t0:i8 = add(a, b) @??;
    y:i8 = mux(c, t0, a) @??;
}
`)
	lut, err := Bind(f, PreferLut)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range lut.Body {
		if in.IsCompute() && in.Res != ir.ResLut {
			t.Errorf("PreferLut left %s on %s", in.Dest, in.Res)
		}
	}
	dsp, err := Bind(f, PreferDsp)
	if err != nil {
		t.Fatal(err)
	}
	if dsp.Body[0].Res != ir.ResDsp {
		t.Errorf("add not on dsp: %s", dsp.Body[0].Res)
	}
	if dsp.Body[1].Res != ir.ResAny {
		t.Errorf("mux should stay wildcard: %s", dsp.Body[1].Res)
	}
	un, err := Bind(lut, Unbind)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range un.Body {
		if in.IsCompute() && in.Res != ir.ResAny {
			t.Errorf("Unbind left %s", in.Res)
		}
	}
	// Bind must not mutate its input.
	if f.Body[0].Res != ir.ResAny {
		t.Error("Bind mutated the input function")
	}
}

// TestVectorizeThenPipelineCompose: the passes compose into the tensoradd
// shape: vectorize then register, then selection finds vaddrega.
func TestVectorizeThenPipelineCompose(t *testing.T) {
	f := mustParse(t, fig16a)
	v, _, err := Vectorize(f, VectorizeOptions{Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Pipeline(v, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	af, err := isel.SelectWithLibrary(p, lib, isel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range af.Body {
		if !in.IsWire() && in.Name == "dsp_vaddrega_i8v4" {
			found = true
		}
	}
	if !found {
		t.Errorf("composition did not reach vaddrega:\n%s", af)
	}
}
