package ir_test

import (
	"fmt"
	"os"
	"testing"

	"reticle/internal/ir"
)

// macChain builds a multiply-add-register chain of 3*stages+2 instructions.
func macChain(stages int) *ir.Func {
	i8 := ir.Int(8)
	b := ir.NewBuilder("chain")
	en := b.Input("en", ir.Bool())
	acc := b.Const(i8, 1)
	for j := 0; j < stages; j++ {
		m := b.Mul(i8, b.Input(fmt.Sprintf("a%d", j), i8), b.Input(fmt.Sprintf("b%d", j), i8), ir.ResAny)
		acc = b.Reg(i8, b.Add(i8, m, acc, ir.ResAny), en, nil, ir.ResAny)
	}
	b.Id("y", i8, acc)
	b.Output("y", i8)
	return b.MustBuild()
}

// TestAllocationBudgets: the front half of a cold request allocates per
// call, not per token, name or instruction. The budgets sit a little above
// what the code does today (in brackets); tier-1 fails when a change puts a
// per-instruction allocation back.
func TestAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	macc, err := os.ReadFile("../../examples/programs/macc.ret")
	if err != nil {
		t.Fatal(err)
	}
	small, err := ir.Parse(string(macc))
	if err != nil {
		t.Fatal(err)
	}
	big := macChain(85) // 257 instructions
	bigText := big.String()
	budgets := []struct {
		name string
		max  float64
		run  func()
	}{
		{"Parse(macc.ret)", 16, func() { ir.Parse(string(macc)) }},           // [9]
		{"Parse(257-instruction chain)", 40, func() { ir.Parse(bigText) }},   // [12]
		{"CanonicalHash(macc.ret)", 4, func() { ir.CanonicalHash(small) }},   // [1]
		{"CanonicalHash(chain)", 4, func() { ir.CanonicalHash(big) }},        // [4]
		{"StructuralHash(macc.ret)", 4, func() { ir.StructuralHash(small) }}, // [1]
		{"StructuralHash(chain)", 4, func() { ir.StructuralHash(big) }},      // [4]
		{"Func.String(macc.ret)", 2, func() { _ = small.String() }},          // [1]
		{"Func.String(chain)", 2, func() { _ = big.String() }},               // [1]
	}
	for _, b := range budgets {
		if got := testing.AllocsPerRun(50, b.run); got > b.max {
			t.Errorf("%s: %v allocations per call, budget %v", b.name, got, b.max)
		} else {
			t.Logf("%s: %v allocations per call", b.name, got)
		}
	}
}
