package ir

import (
	"strings"
	"testing"
)

func TestBuilderMulAdd(t *testing.T) {
	b := NewBuilder("muladd")
	i8 := Int(8)
	a := b.Input("a", i8)
	x := b.Input("b", i8)
	c := b.Input("c", i8)
	t0 := b.Mul(i8, a, x, ResAny)
	t1 := b.Add(i8, t0, c, ResAny)
	b.Output(t1, i8)
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Body) != 2 || f.Body[0].Op != OpMul || f.Body[1].Op != OpAdd {
		t.Fatalf("body = %v", f.Body)
	}
	if f.Body[1].Args[0] != t0 {
		t.Errorf("add arg = %s, want %s", f.Body[1].Args[0], t0)
	}
}

func TestBuilderFeedbackCycle(t *testing.T) {
	// Rebuild Figure 12b via the builder: a counter with a reg cycle.
	b := NewBuilder("fig12b")
	i8 := Int(8)
	b.Input("x", Bool())
	en := b.Const(Bool(), 1)
	four := b.Const(i8, 4)
	sum := b.Fresh("t")
	regOut := b.Fresh("t")
	b.InstrNamed(sum, i8, OpAdd, nil, []string{regOut, four}, ResAny)
	b.RegNamed(regOut, i8, sum, en, []int64{0}, ResAny)
	b.Output(regOut, i8)
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CheckWellFormed(f); err != nil {
		t.Error("builder-made reg cycle rejected")
	}
}

func TestBuilderFreshNamesUnique(t *testing.T) {
	b := NewBuilder("f")
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		n := b.Fresh("t")
		if seen[n] {
			t.Fatalf("duplicate fresh name %s", n)
		}
		seen[n] = true
	}
}

func TestBuilderCatchesTypeError(t *testing.T) {
	b := NewBuilder("bad")
	a := b.Input("a", Int(8))
	x := b.Input("b", Int(16))
	y := b.Add(Int(8), a, x, ResAny)
	b.Output(y, Int(8))
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted mismatched add")
	}
}

func TestBuilderMustBuildPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("no panic")
		}
	}()
	b := NewBuilder("bad")
	a := b.Input("a", Int(8))
	b.Output(a, Int(16)) // type mismatch on output
	b.MustBuild()
}

func TestBuilderRegDefaultInit(t *testing.T) {
	b := NewBuilder("r")
	a := b.Input("a", Int(8))
	en := b.Input("en", Bool())
	y := b.Reg(Int(8), a, en, nil, ResDsp)
	b.Output(y, Int(8))
	f := b.MustBuild()
	if f.Body[0].Attrs[0] != 0 {
		t.Errorf("default init = %v", f.Body[0].Attrs)
	}
	if f.Body[0].Res != ResDsp {
		t.Errorf("res = %s", f.Body[0].Res)
	}
}

func TestBuilderOutputPrinted(t *testing.T) {
	b := NewBuilder("p")
	a := b.Input("a", Bool())
	b.Id("y", Bool(), a)
	b.Output("y", Bool())
	f := b.MustBuild()
	if !strings.Contains(f.String(), "y:bool = id(a);") {
		t.Errorf("printed:\n%s", f)
	}
}
