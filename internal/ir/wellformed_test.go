package ir

import (
	"strings"
	"testing"
)

// Figure 12a: ill-formed — t1 feeds itself combinationally.
const fig12a = `
def fig12a(x:bool) -> (t1:i8) {
    t0:i8 = const[4];
    t1:i8 = add(t1, t0) @??;
}
`

// Figure 12b: well-formed — the cycle passes through a reg.
const fig12b = `
def fig12b(x:bool) -> (t3:i8) {
    t0:bool = const[1];
    t1:i8 = const[4];
    t2:i8 = add(t3, t1) @??;
    t3:i8 = reg[0](t2, t0) @??;
}
`

func TestFig12IllFormed(t *testing.T) {
	f, err := Parse(fig12a)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = CheckWellFormed(f)
	if err == nil {
		t.Fatal("Figure 12a accepted")
	}
	if !strings.Contains(err.Error(), "combinational cycle") {
		t.Errorf("error = %v", err)
	}
	if !strings.Contains(err.Error(), "t1") {
		t.Errorf("error does not name the offending instruction: %v", err)
	}
	if _, _, err := CheckWellFormed(f); err == nil {
		t.Error("CheckWellFormed accepted a combinational cycle")
	}
}

func TestFig12WellFormed(t *testing.T) {
	f, err := Parse(fig12b)
	if err != nil {
		t.Fatal(err)
	}
	pure, regs, err := CheckWellFormed(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(pure) != 3 || len(regs) != 1 {
		t.Fatalf("pure = %v, regs = %v", pure, regs)
	}
	if f.Body[regs[0]].Op != OpReg {
		t.Errorf("regs[0] is %s", f.Body[regs[0]].Op)
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	src := `
def chain(a:i8, b:i8) -> (t2:i8) {
    t2:i8 = mul(t1, t0) @??;
    t1:i8 = add(t0, b) @??;
    t0:i8 = add(a, b) @??;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pure, _, err := CheckWellFormed(f)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for rank, idx := range pure {
		pos[f.Body[idx].Dest] = rank
	}
	if !(pos["t0"] < pos["t1"] && pos["t1"] < pos["t2"]) {
		t.Errorf("topological order broken: %v", pos)
	}
}

func TestLongCombinationalCycle(t *testing.T) {
	src := `
def loop3(a:i8) -> (t2:i8) {
    t0:i8 = add(t2, a) @??;
    t1:i8 = add(t0, a) @??;
    t2:i8 = add(t1, a) @??;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CheckWellFormed(f); err == nil {
		t.Error("3-node combinational cycle accepted")
	}
}

func TestTwoRegCycle(t *testing.T) {
	// A cycle threading two regs is fine.
	src := `
def swap(en:bool) -> (p:i8, q:i8) {
    p:i8 = reg[1](q, en) @??;
    q:i8 = reg[0](p, en) @??;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CheckWellFormed(f); err != nil {
		t.Error("reg-reg cycle rejected")
	}
}

func TestRegBreaksOnlyItsOwnCycle(t *testing.T) {
	// A reg elsewhere must not excuse a different combinational cycle.
	src := `
def mixed(a:i8, en:bool) -> (r:i8) {
    r:i8 = reg[0](a, en) @??;
    t0:i8 = add(t1, a) @??;
    t1:i8 = add(t0, a) @??;
}
`
	f := mustParseNoCheck(t, src)
	if _, _, err := CheckWellFormed(f); err == nil {
		t.Error("combinational cycle accepted because an unrelated reg exists")
	}
}

func TestWellFormedPureDAG(t *testing.T) {
	f, err := Parse(fig6)
	if err != nil {
		t.Fatal(err)
	}
	pure, regs, err := CheckWellFormed(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(pure) != 3 || len(regs) != 0 {
		t.Errorf("pure = %v, regs = %v", pure, regs)
	}
}
