package passes

import (
	"math/rand"
	"testing"

	"reticle/internal/interp"
	"reticle/internal/ir"
	"reticle/internal/irgen"
)

func TestDCERemovesDeadCode(t *testing.T) {
	f := mustParse(t, `
def dead(a:i8, b:i8) -> (y:i8) {
    t0:i8 = add(a, b) @??;
    t1:i8 = mul(a, b) @??;
    t2:i8 = mul(t1, t1) @??;
    y:i8 = add(t0, a) @??;
}
`)
	out, removed, err := DCE(f)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed = %d, want 2 (t1, t2)\n%s", removed, out)
	}
	if len(out.Body) != 2 {
		t.Errorf("body = %d", len(out.Body))
	}
}

func TestDCEKeepsRegFeedback(t *testing.T) {
	f := mustParse(t, `
def acc(en:bool) -> (r:i8) {
    one:i8 = const[1];
    s:i8 = add(r, one) @??;
    r:i8 = reg[0](s, en) @??;
}
`)
	_, removed, err := DCE(f)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Errorf("removed %d from a live feedback loop", removed)
	}
}

func TestCSEMergesDuplicates(t *testing.T) {
	f := mustParse(t, `
def dup(a:i8, b:i8) -> (y:i8) {
    t0:i8 = add(a, b) @??;
    t1:i8 = add(a, b) @??;
    y:i8 = mul(t0, t1) @??;
}
`)
	out, removed, err := CSE(f)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d, want 1\n%s", removed, out)
	}
	// y must now square the single remaining add.
	var mul ir.Instr
	for _, in := range out.Body {
		if in.Op == ir.OpMul {
			mul = in
		}
	}
	if mul.Args[0] != mul.Args[1] {
		t.Errorf("mul args = %v", mul.Args)
	}
}

func TestCSECommutative(t *testing.T) {
	f := mustParse(t, `
def comm(a:i8, b:i8) -> (y:i8) {
    t0:i8 = add(a, b) @??;
    t1:i8 = add(b, a) @??;
    y:i8 = mul(t0, t1) @??;
}
`)
	_, removed, err := CSE(f)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("commutative duplicate not merged: removed = %d", removed)
	}
	// sub is not commutative.
	g := mustParse(t, `
def ncomm(a:i8, b:i8) -> (y:i8) {
    t0:i8 = sub(a, b) @??;
    t1:i8 = sub(b, a) @??;
    y:i8 = mul(t0, t1) @??;
}
`)
	_, removed, err = CSE(g)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Errorf("sub(a,b) merged with sub(b,a)")
	}
}

func TestCSERespectsResourceAnnotations(t *testing.T) {
	// Same computation, different binding: the annotations are hard
	// constraints (§3), so the instructions are NOT interchangeable.
	f := mustParse(t, `
def bind(a:i8, b:i8) -> (y:i8) {
    t0:i8 = add(a, b) @lut;
    t1:i8 = add(a, b) @dsp;
    y:i8 = mul(t0, t1) @??;
}
`)
	_, removed, err := CSE(f)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Errorf("merged across resource annotations")
	}
}

func TestCSEKeepsRegisterIdentity(t *testing.T) {
	f := mustParse(t, `
def regs(a:i8, en:bool) -> (y:i8) {
    r0:i8 = reg[0](a, en) @??;
    r1:i8 = reg[0](a, en) @??;
    y:i8 = add(r0, r1) @??;
}
`)
	_, removed, err := CSE(f)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Errorf("merged two registers")
	}
}

func TestCSEOutputDuplicate(t *testing.T) {
	// The duplicate IS an output: it must survive as an id alias.
	f := mustParse(t, `
def outs(a:i8, b:i8) -> (y:i8, z:i8) {
    y:i8 = add(a, b) @??;
    z:i8 = add(a, b) @??;
}
`)
	out, _, err := CSE(f)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range out.Body {
		if in.Op == ir.OpId && in.Dest == "z" && in.Args[0] == "y" {
			found = true
		}
	}
	if !found {
		t.Errorf("output duplicate not aliased:\n%s", out)
	}
}

func TestOptimizePreservesSemanticsOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		f := irgen.Generate(rng, irgen.Config{Instrs: 18, WithVectors: true})
		opt, err := Optimize(f)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(opt.Body) > len(f.Body) {
			t.Errorf("seed %d: optimization grew the program", seed)
		}
		tr := irgen.RandomTrace(rng, f, 10)
		want, err := interp.Run(f, tr)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := interp.Run(opt, tr)
		if err != nil {
			t.Fatalf("seed %d: optimized: %v", seed, err)
		}
		// Compare only output ports (intermediates may vanish).
		for i := range want {
			for _, p := range f.Outputs {
				if !want[i][p.Name].Equal(got[i][p.Name]) {
					t.Fatalf("seed %d cycle %d: %s differs\nbefore:\n%s\nafter:\n%s",
						seed, i, p.Name, f, opt)
				}
			}
		}
	}
}

func TestCSEConstants(t *testing.T) {
	f := mustParse(t, `
def consts(x:bool) -> (y:i8) {
    c0:i8 = const[5];
    c1:i8 = const[5];
    c2:i8 = const[6];
    t0:i8 = add(c0, c1) @??;
    y:i8 = add(t0, c2) @??;
}
`)
	out, removed, err := CSE(f)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("removed = %d, want 1 (duplicate const 5)\n%s", removed, out)
	}
}
