// Package irgen generates random well-formed intermediate-language
// programs for differential testing: every generated function type-checks,
// passes the well-formedness criterion, and uses only operations and types
// the bundled UltraScale-like target supports, so the whole pipeline —
// selection, cascading, placement, expansion — can be validated against
// the reference interpreter on arbitrary inputs.
package irgen

import (
	"fmt"
	"math/rand"

	"reticle/internal/interp"
	"reticle/internal/ir"
)

// Config bounds the generated program.
type Config struct {
	// Instrs is the number of instructions to generate (approximate:
	// a few extra consts may be added); 0 means 12.
	Instrs int
	// WithVectors permits i8<4> vector values.
	WithVectors bool
}

// maxOutputs bounds the number of output ports; scalar types are drawn
// from widths.
const maxOutputs = 3

var widths = []int{8, 16}

// Generate builds a random function. The same seed yields the same
// program.
func Generate(rng *rand.Rand, cfg Config) *ir.Func {
	if cfg.Instrs == 0 {
		cfg.Instrs = 12
	}
	g := &gen{rng: rng, cfg: cfg, b: ir.NewBuilder(fmt.Sprintf("rand%d", rng.Intn(1<<30)))}

	// Seed values: a few inputs of each type plus a constant-true enable.
	g.addInput(ir.Bool(), g.b.Input("en", ir.Bool()))
	for i, w := range widths {
		t := ir.Int(w)
		g.addInput(t, g.b.Input(fmt.Sprintf("x%d", i), t))
		g.addInput(t, g.b.Input(fmt.Sprintf("y%d", i), t))
	}
	if cfg.WithVectors {
		v := ir.Vector(8, 4)
		g.addInput(v, g.b.Input("va", v))
		g.addInput(v, g.b.Input("vb", v))
	}

	for i := 0; i < cfg.Instrs; i++ {
		g.step()
	}

	// Outputs: the most recent values of distinct types.
	outs := 1 + g.rng.Intn(maxOutputs)
	used := map[string]bool{}
	made := 0
	for i := len(g.order) - 1; i >= 0 && made < outs; i-- {
		name := g.order[i]
		if used[name] || g.isInput[name] {
			continue
		}
		used[name] = true
		g.b.Output(name, g.typeOf[name])
		made++
	}
	if made == 0 {
		// Degenerate: force one output.
		t := ir.Int(widths[0])
		d := g.b.Instr(t, ir.OpAdd, nil, []string{g.pick(t), g.pick(t)}, ir.ResAny)
		g.b.Output(d, t)
	}
	return g.b.MustBuild()
}

type gen struct {
	rng *rand.Rand
	cfg Config
	b   *ir.Builder

	typeOf  map[string]ir.Type
	byType  map[ir.Type][]string
	order   []string
	isInput map[string]bool
}

func (g *gen) add(t ir.Type, name string) {
	if g.typeOf == nil {
		g.typeOf = map[string]ir.Type{}
		g.byType = map[ir.Type][]string{}
		g.isInput = map[string]bool{}
	}
	if _, dup := g.typeOf[name]; dup {
		return
	}
	g.typeOf[name] = t
	g.byType[t] = append(g.byType[t], name)
	g.order = append(g.order, name)
}

func (g *gen) addInput(t ir.Type, name string) {
	g.add(t, name)
	g.isInput[name] = true
}

// pick returns a random existing value of type t, creating a constant if
// none exists.
func (g *gen) pick(t ir.Type) string {
	vals := g.byType[t]
	if len(vals) == 0 {
		var attrs []int64
		if t.Lanes() > 1 {
			for i := 0; i < t.Lanes(); i++ {
				attrs = append(attrs, g.rng.Int63n(256)-128)
			}
		} else {
			attrs = []int64{g.rng.Int63n(256) - 128}
		}
		d := g.b.Instr(t, ir.OpConst, attrs, nil, ir.ResAny)
		g.add(t, d)
		return d
	}
	return vals[g.rng.Intn(len(vals))]
}

func (g *gen) scalarType() ir.Type {
	return ir.Int(widths[g.rng.Intn(len(widths))])
}

func (g *gen) anyDataType() ir.Type {
	if g.cfg.WithVectors && g.rng.Intn(4) == 0 {
		return ir.Vector(8, 4)
	}
	return g.scalarType()
}

// step emits one random instruction.
func (g *gen) step() {
	res := []ir.Resource{ir.ResAny, ir.ResAny, ir.ResLut, ir.ResDsp}[g.rng.Intn(4)]
	switch g.rng.Intn(10) {
	case 0, 1, 2: // arithmetic
		t := g.anyDataType()
		op := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul}[g.rng.Intn(3)]
		if t.IsVector() && op == ir.OpMul {
			op = ir.OpAdd // no SIMD multiply on the bundled target
		}
		if op == ir.OpMul && t.Width() > 16 {
			t = ir.Int(8)
		}
		if op == ir.OpMul || t.IsVector() {
			res = ir.ResAny // vector ops and multipliers live on DSPs
		}
		d := g.b.Instr(t, op, nil, []string{g.pick(t), g.pick(t)}, res)
		g.add(t, d)
	case 3, 4: // bitwise
		t := g.anyDataType()
		op := []ir.Op{ir.OpAnd, ir.OpOr, ir.OpXor}[g.rng.Intn(3)]
		if t.IsVector() {
			res = ir.ResAny
		}
		d := g.b.Instr(t, op, nil, []string{g.pick(t), g.pick(t)}, res)
		g.add(t, d)
	case 5: // comparison
		t := g.scalarType()
		op := []ir.Op{ir.OpEq, ir.OpNeq, ir.OpLt, ir.OpGt, ir.OpLe, ir.OpGe}[g.rng.Intn(6)]
		d := g.b.Instr(ir.Bool(), op, nil, []string{g.pick(t), g.pick(t)}, ir.ResLut)
		g.add(ir.Bool(), d)
	case 6: // mux (LUT-only on the bundled target, scalar shapes)
		t := g.scalarType()
		d := g.b.Instr(t, ir.OpMux, nil,
			[]string{g.pick(ir.Bool()), g.pick(t), g.pick(t)}, ir.ResLut)
		g.add(t, d)
	case 7: // register
		t := g.anyDataType()
		if t.IsVector() {
			res = ir.ResAny // vector registers live in DSPs
		}
		init := []int64{g.rng.Int63n(64)}
		d := g.b.Instr(t, ir.OpReg, init, []string{g.pick(t), g.pick(ir.Bool())}, res)
		g.add(t, d)
	case 8: // shift (wire)
		t := g.scalarType()
		op := []ir.Op{ir.OpSll, ir.OpSrl, ir.OpSra}[g.rng.Intn(3)]
		sh := int64(g.rng.Intn(t.Width()))
		d := g.b.Instr(t, op, []int64{sh}, []string{g.pick(t)}, ir.ResAny)
		g.add(t, d)
	case 9: // not
		t := g.scalarType()
		d := g.b.Instr(t, ir.OpNot, nil, []string{g.pick(t)}, ir.ResLut)
		g.add(t, d)
	}
}

// RandomTrace builds an input trace of the given length with uniformly
// random values for every input port.
func RandomTrace(rng *rand.Rand, f *ir.Func, cycles int) interp.Trace {
	trace := make(interp.Trace, cycles)
	for i := range trace {
		step := interp.Step{}
		for _, p := range f.Inputs {
			switch {
			case p.Type.IsBool():
				step[p.Name] = ir.BoolValue(rng.Intn(2) == 0)
			case p.Type.IsVector():
				lanes := make([]int64, p.Type.Lanes())
				for k := range lanes {
					lanes[k] = rng.Int63()
				}
				step[p.Name] = ir.VectorValue(p.Type, lanes...)
			default:
				step[p.Name] = ir.ScalarValue(p.Type, rng.Int63())
			}
		}
		trace[i] = step
	}
	return trace
}
