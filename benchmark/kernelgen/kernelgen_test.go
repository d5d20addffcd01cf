package kernelgen

import (
	"context"
	"math/rand"
	"testing"

	"reticle"
	"reticle/internal/interp"
	"reticle/internal/ir"
	"reticle/internal/irgen"
)

// draw pulls a mixed schedule of n kernels, the way the workloads do.
func draw(seed int64, n int) []Kernel {
	g := New(seed)
	out := make([]Kernel, 0, n)
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 4:
			out = append(out, g.Vec())
		case 0:
			out = append(out, g.DSP())
		case 1:
			out = append(out, g.LUT())
		case 2:
			out = append(out, g.FSM())
		default:
			out = append(out, g.SmallDSP())
		}
	}
	return out
}

func TestSameSeedSameSchedule(t *testing.T) {
	a, b := draw(7, 64), draw(7, 64)
	for i := range a {
		if a[i].IR != b[i].IR {
			t.Fatalf("kernel %d differs between two draws of seed 7", i)
		}
	}
	if c := draw(8, 64); c[0].IR == a[0].IR {
		t.Fatal("seeds 7 and 8 drew the same first kernel")
	}
}

func TestKernelsDistinctAndParse(t *testing.T) {
	seen := map[string]string{}
	for _, k := range draw(3, 400) {
		f, err := ir.Parse(k.IR)
		if err != nil {
			t.Fatalf("%s does not parse: %v\n%s", k.Name, err, k.IR)
		}
		if f.String() != k.IR {
			t.Fatalf("%s does not round-trip through the parser", k.Name)
		}
		h := ir.CanonicalHash(f)
		if prev, dup := seen[h]; dup {
			t.Fatalf("%s and %s share a canonical hash", prev, k.Name)
		}
		seen[h] = k.Name
	}
}

func TestTweakKeepsStructure(t *testing.T) {
	tweaked := 0
	for i, k := range draw(5, 120) {
		e, ok := TweakConst(k, i, int64(1+i%255))
		if !ok {
			continue
		}
		tweaked++
		if ir.StructuralHash(e.F) != ir.StructuralHash(k.F) {
			t.Errorf("%s: constant tweak changed the structural hash", k.Name)
		}
		if ir.CanonicalHash(e.F) == ir.CanonicalHash(k.F) {
			t.Errorf("%s: constant tweak kept the canonical hash", k.Name)
		}
		if _, err := ir.Parse(e.IR); err != nil {
			t.Errorf("%s: tweaked kernel does not parse: %v", k.Name, err)
		}
	}
	if tweaked < 90 {
		t.Fatalf("only %d of 120 kernels had a constant to tweak", tweaked)
	}
}

func TestAppendChangesStructure(t *testing.T) {
	for i, k := range draw(9, 40) {
		e := AppendOp(k, 1+i%3)
		if ir.StructuralHash(e.F) == ir.StructuralHash(k.F) {
			t.Errorf("%s: append kept the structural hash", k.Name)
		}
		if len(e.F.Outputs) != len(k.F.Outputs)+1+i%3 {
			t.Errorf("%s: append added %d outputs", k.Name, len(e.F.Outputs)-len(k.F.Outputs))
		}
	}
}

// TestKernelsCompileOnBothFamilies compiles a sample of every class and
// both edits on both bundled targets and co-simulates the result: the
// workloads must never send a kernel the compiler rejects.
func TestKernelsCompileOnBothFamilies(t *testing.T) {
	us, err := reticle.NewCompiler()
	if err != nil {
		t.Fatal(err)
	}
	ag, err := reticle.NewCompilerWith(reticle.Options{Target: reticle.Agilex(), Device: reticle.AGF014()})
	if err != nil {
		t.Fatal(err)
	}
	n := 24
	if testing.Short() {
		n = 8
	}
	var ks []Kernel
	for i, k := range draw(11, n) {
		ks = append(ks, k, AppendOp(k, 1+i%3))
		if e, ok := TweakConst(k, i, 17); ok {
			ks = append(ks, e)
		}
	}
	for i, k := range ks {
		c := us
		if i%2 == 1 {
			c = ag
		}
		art, err := c.CompileContext(context.Background(), k.F)
		if err != nil {
			t.Fatalf("%s on %s: %v\n%s", k.Name, c.Target().Name, err, k.IR)
		}
		if art.Degraded {
			t.Errorf("%s on %s: degraded placement", k.Name, c.Target().Name)
		}
		trace := irgen.RandomTrace(rand.New(rand.NewSource(int64(i))), k.F, 8)
		want, err := reticle.Interpret(k.F, trace)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reticle.InterpretAsm(art.Placed, c.Target(), trace)
		if err != nil {
			t.Fatal(err)
		}
		if !interp.Equal(want, got) {
			t.Errorf("%s on %s: compiled semantics diverge from the IR", k.Name, c.Target().Name)
		}
	}
}
