// Package bench generates the evaluation workloads of §7.1:
//
//   - tensoradd: element-wise tensor addition, vectorized and pipelined —
//     demonstrates SIMD DSP configurations;
//   - tensordot: systolic dot products chained through accumulators —
//     demonstrates fused multiply-add and DSP cascading;
//   - fsm: a coroutine-style finite state machine — demonstrates
//     control-oriented, LUT-only programs;
//   - dspadd: the behavioral N-parallel-adds program of Fig. 3, for the
//     Figure 4 utilization experiment.
//
// All generators emit plain intermediate-language functions; the same
// program feeds the Reticle pipeline and (via the behavioral backends)
// the baseline toolchain.
package bench

import (
	"fmt"

	"reticle/internal/ir"
)

// Lanes is the SIMD width used by vectorized benchmarks (the four-lane
// byte mode of the DSP slice).
const Lanes = 4

// TensorAdd builds an element-wise sum of two one-dimensional tensors of n
// i8 elements, grouped into i8<4> vector operations and pipelined with a
// register after each addition (§7.1: "we pipelined the addition operation
// with register instructions").
func TensorAdd(n int) (*ir.Func, error) {
	if n <= 0 || n%Lanes != 0 {
		return nil, fmt.Errorf("bench: tensoradd size %d must be a positive multiple of %d", n, Lanes)
	}
	groups := n / Lanes
	v := ir.Vector(8, Lanes)
	b := ir.NewBuilder(fmt.Sprintf("tensoradd_%d", n))
	en := b.Input("en", ir.Bool())
	for g := 0; g < groups; g++ {
		a := b.Input(fmt.Sprintf("a%d", g), v)
		c := b.Input(fmt.Sprintf("b%d", g), v)
		sum := b.Add(v, a, c, ir.ResAny)
		y := fmt.Sprintf("y%d", g)
		b.RegNamed(y, v, sum, en, nil, ir.ResAny)
		b.Output(y, v)
	}
	return b.Build()
}

// DspAdd builds the Fig. 3 program: n independent scalar i8 additions with
// no pipelining, as a behavioral genvar loop elaborates. The Figure 4
// experiment synthesizes it with DSP hints.
func DspAdd(n int) (*ir.Func, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bench: dspadd size %d", n)
	}
	i8 := ir.Int(8)
	b := ir.NewBuilder(fmt.Sprintf("dspadd_%d", n))
	for i := 0; i < n; i++ {
		a := b.Input(fmt.Sprintf("a%d", i), i8)
		c := b.Input(fmt.Sprintf("b%d", i), i8)
		y := fmt.Sprintf("y%d", i)
		b.InstrNamed(y, i8, ir.OpAdd, nil, []string{a, c}, ir.ResAny)
		b.Output(y, i8)
	}
	return b.Build()
}

// DspAddVectorized builds the hand-optimized structural counterpart of
// DspAdd for Figure 4: the same n additions expressed as ceil(n/4)
// four-lane vector operations bound to DSPs.
func DspAddVectorized(n int) (*ir.Func, error) {
	if n <= 0 || n%Lanes != 0 {
		return nil, fmt.Errorf("bench: dspadd size %d must be a positive multiple of %d", n, Lanes)
	}
	groups := n / Lanes
	v := ir.Vector(8, Lanes)
	b := ir.NewBuilder(fmt.Sprintf("dspaddv_%d", n))
	for g := 0; g < groups; g++ {
		a := b.Input(fmt.Sprintf("a%d", g), v)
		c := b.Input(fmt.Sprintf("b%d", g), v)
		y := fmt.Sprintf("y%d", g)
		b.InstrNamed(y, v, ir.OpAdd, nil, []string{a, c}, ir.ResDsp)
		b.Output(y, v)
	}
	return b.Build()
}

// TensorDot builds `arrays` systolic arrays (§7.1 uses five), each
// computing the dot product of two one-dimensional i8 tensors of length
// `size`. Every stage multiplies one element pair, adds the running sum
// from the previous stage, and registers the result — the classic systolic
// accumulator that instruction selection fuses into registered multiply-
// adds and the layout optimizer cascades down a DSP column.
func TensorDot(arrays, size int) (*ir.Func, error) {
	if arrays <= 0 || size <= 0 {
		return nil, fmt.Errorf("bench: tensordot shape %dx%d", arrays, size)
	}
	i8 := ir.Int(8)
	b := ir.NewBuilder(fmt.Sprintf("tensordot_%dx%d", arrays, size))
	en := b.Input("en", ir.Bool())
	for k := 0; k < arrays; k++ {
		acc := b.Const(i8, 0)
		for j := 0; j < size; j++ {
			a := b.Input(fmt.Sprintf("a%d_%d", k, j), i8)
			c := b.Input(fmt.Sprintf("b%d_%d", k, j), i8)
			m := b.Mul(i8, a, c, ir.ResAny)
			s := b.Add(i8, m, acc, ir.ResAny)
			acc = b.Reg(i8, s, en, nil, ir.ResAny)
		}
		y := fmt.Sprintf("y%d", k)
		b.Id(y, i8, acc)
		b.Output(y, i8)
	}
	return b.Build()
}

// FSM builds a coroutine-style finite state machine over `states` states
// (§7.1): on go, the machine advances to the next state, wrapping at the
// end; otherwise it holds. The state register and the eq/mux next-state
// logic can only map to LUTs — conditional branching requires multiplexing.
func FSM(states int) (*ir.Func, error) {
	if states < 2 {
		return nil, fmt.Errorf("bench: fsm needs at least 2 states, got %d", states)
	}
	i8 := ir.Int(8)
	b := ir.NewBuilder(fmt.Sprintf("fsm_%d", states))
	gov := b.Input("go", ir.Bool())
	one := b.Const(ir.Bool(), 1)
	state := b.Fresh("state")

	// next-state chain: next = state==k ? k+1 : ... ; wraps to 0.
	next := b.Const(i8, 0) // default target (from the last state)
	for k := states - 2; k >= 0; k-- {
		kc := b.Const(i8, int64(k))
		cond := b.Compare(ir.OpEq, state, kc, ir.ResLut)
		target := b.Const(i8, int64(k+1))
		next = b.Mux(i8, cond, target, next, ir.ResLut)
	}
	// Hold unless go.
	advance := b.Mux(i8, gov, next, state, ir.ResLut)
	b.RegNamed(state, i8, advance, one, nil, ir.ResLut)
	b.Id("y", i8, state)
	b.Output("y", i8)
	return b.Build()
}
