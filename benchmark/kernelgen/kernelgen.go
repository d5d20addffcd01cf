// Package kernelgen is the benchmark's seeded kernel generator: the
// DSP-class, LUT-class and FSM-shaped programs the reticle-load workloads
// send, and the two interactive edits (constant tweak, one-op append)
// the shard-mixed workload replays. The same seed yields byte-identical
// kernels in the same order; every kernel carries a serial in its name,
// so all kernels of one Gen are pairwise distinct under ir.CanonicalHash.
package kernelgen

import (
	"fmt"
	"math"
	"math/rand"

	"reticle/internal/ir"
	"reticle/internal/irgen"
)

// Kernel classes, by the pipeline stage that dominates their compile.
const (
	ClassDSP = "dsp" // ragged tensordot: parse, isel and cascade heavy
	ClassLUT = "lut" // irgen random program: placement heavy
	ClassFSM = "fsm" // eq/mux next-state chain: LUT only, placement heavy
)

// Kernel is one generated program. IR is F printed; requests carry IR,
// the oracle interprets F.
type Kernel struct {
	Name  string
	Class string
	IR    string
	F     *ir.Func
}

func kernelOf(class string, f *ir.Func) Kernel {
	return Kernel{Name: f.Name, Class: class, IR: f.String(), F: f}
}

// Gen draws kernels from one seeded stream.
type Gen struct {
	rng    *rand.Rand
	seed   int64
	serial int
	// One low-discrepancy sequence per class spreads the class's size
	// parameters evenly over their ranges, and the sequences do not depend
	// on the seed: the n-th kernel of a class has the same size under every
	// seed, only its content differs. Any window of a schedule then holds
	// the same size mix, and the kernel at a given Zipf rank costs the same
	// to serve, so latency quantiles vary with the program under test, not
	// with the draw.
	cnt [5]int
}

// New returns a generator for seed.
func New(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Rand exposes the generator's stream for draws that must stay in step
// with kernel generation (family, Zipf rank, edit choice).
func (g *Gen) Rand() *rand.Rand { return g.rng }

// The R2 sequence (Roberts): the n-th point is frac(n*a1), frac(n*a2)
// with a1, a2 powers of the inverse plastic number. It fills the unit
// square evenly from any starting index.
const (
	r2a1 = 0.7548776662466927
	r2a2 = 0.5698402909980532
)

// scale maps x in [0, 1) onto the integers lo..hi.
func scale(x float64, lo, hi int) int { return lo + int(x*float64(hi-lo+1)) }

// spread returns the next point of sequence dim scaled to [lo, hi].
func (g *Gen) spread(dim, lo, hi int) int {
	x, _ := g.r2(dim)
	return scale(x, lo, hi)
}

// spread2 returns the next point of sequence dim as two coordinates
// scaled to [lo1, hi1] and [lo2, hi2].
func (g *Gen) spread2(dim, lo1, hi1, lo2, hi2 int) (int, int) {
	x, y := g.r2(dim)
	return scale(x, lo1, hi1), scale(y, lo2, hi2)
}

func (g *Gen) r2(dim int) (x, y float64) {
	g.cnt[dim]++
	n := float64(g.cnt[dim])
	x, y = 0.5+n*r2a1, 0.5+n*r2a2
	return x - math.Floor(x), y - math.Floor(y)
}

// Mix returns the next point of a sequence of its own in the unit square,
// for a workload to choose request kinds with: every window of a schedule
// then holds the same share of each kind, whatever the seed.
func (g *Gen) Mix() (u, v float64) { return g.r2(4) }

func (g *Gen) name(class string) string {
	g.serial++
	return fmt.Sprintf("%s_s%d_%d", class, g.seed, g.serial)
}

// DSP builds a ragged tensordot: 2-6 systolic arrays of 3-36
// multiply-accumulate stages each, every accumulator starting from a
// random constant. Array count and mean array length come from the
// size sequence; how the stages split over the arrays is random.
func (g *Gen) DSP() Kernel {
	arrays, mean := g.spread2(0, 2, 6, 6, 33)
	return g.tensordot(g.ragged(arrays, arrays*mean, 3, 36))
}

// SmallDSP builds a 2-array tensordot of 3-6 stages per array: the kernel
// size /explore sweeps.
func (g *Gen) SmallDSP() Kernel { return g.tensordot(g.ragged(2, 9, 3, 6)) }

// ragged splits total into n parts within [lo, hi] by moving single
// units between random pairs of an even split.
func (g *Gen) ragged(n, total, lo, hi int) []int {
	parts := make([]int, n)
	for i := range parts {
		parts[i] = total / n
	}
	parts[0] += total % n
	for moves := 4 * total; moves > 0; moves-- {
		from, to := g.rng.Intn(n), g.rng.Intn(n)
		if parts[from] > lo && parts[to] < hi {
			parts[from]--
			parts[to]++
		}
	}
	return parts
}

func (g *Gen) tensordot(stagesOf []int) Kernel {
	i8 := ir.Int(8)
	b := ir.NewBuilder(g.name("td"))
	en := b.Input("en", ir.Bool())
	for k, stages := range stagesOf {
		acc := b.Const(i8, g.rng.Int63n(256)-128)
		for j := 0; j < stages; j++ {
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
	return kernelOf(ClassDSP, b.MustBuild())
}

// Vec builds a tensoradd-shaped kernel: 8-96 independent four-lane
// vector additions, each registered. Selection is trivial and the DSP
// placement problem is wide, so it is placement heavy; it belongs in the
// working sets, not in the cold DSP stream.
func (g *Gen) Vec() Kernel {
	v := ir.Vector(8, 4)
	b := ir.NewBuilder(g.name("va"))
	en := b.Input("en", ir.Bool())
	for i, groups := 0, g.spread(3, 8, 96); i < groups; i++ {
		a := b.Input(fmt.Sprintf("a%d", i), v)
		c := b.Input(fmt.Sprintf("b%d", i), v)
		y := fmt.Sprintf("y%d", i)
		b.RegNamed(y, v, b.Add(v, a, c, ir.ResAny), en, []int64{g.rng.Int63n(64)}, ir.ResAny)
		b.Output(y, v)
	}
	return kernelOf(ClassDSP, b.MustBuild())
}

// LUT builds an irgen random program of 12-120 instructions, vectors on.
func (g *Gen) LUT() Kernel {
	f := irgen.Generate(g.rng, irgen.Config{Instrs: g.spread(1, 12, 120), WithVectors: true})
	f.Name = g.name("rp")
	return kernelOf(ClassLUT, f)
}

// FSM builds a coroutine-style state machine of 3-40 states: on go it
// follows a random transition table, otherwise it holds. Each state's
// transition is optionally gated by a second input, and the state is
// decoded into 0-3 Moore outputs, so two machines of one size rarely
// share a structure.
func (g *Gen) FSM() Kernel {
	states := g.spread(2, 3, 40)
	i8 := ir.Int(8)
	b := ir.NewBuilder(g.name("fsm"))
	gov := b.Input("go", ir.Bool())
	gate := b.Input("gate", ir.Bool())
	one := b.Const(ir.Bool(), 1)
	state := b.Fresh("state")

	next := b.Const(i8, 0)
	for k := states - 1; k >= 0; k-- {
		cond := b.Compare(ir.OpEq, state, b.Const(i8, int64(k)), ir.ResLut)
		if g.rng.Intn(2) == 0 {
			cond = b.Binary(ir.OpAnd, ir.Bool(), cond, gate, ir.ResLut)
		}
		target := b.Const(i8, int64(g.rng.Intn(states)))
		next = b.Mux(i8, cond, target, next, ir.ResLut)
	}
	advance := b.Mux(i8, gov, next, state, ir.ResLut)
	b.RegNamed(state, i8, advance, one, nil, ir.ResLut)
	b.Id("y", i8, state)
	b.Output("y", i8)
	for d := g.rng.Intn(4); d > 0; d-- {
		o := fmt.Sprintf("dec%d", d)
		b.InstrNamed(o, ir.Bool(), ir.OpEq, nil,
			[]string{state, b.Const(i8, int64(g.rng.Intn(states)))}, ir.ResLut)
		b.Output(o, ir.Bool())
	}
	return kernelOf(ClassFSM, b.MustBuild())
}

// TweakConst returns k with one constant value changed: the nth (mod
// count) integer const or register initial value moves by delta, which
// must be in [1, 255]. The edit keeps ir.StructuralHash and changes
// ir.CanonicalHash — the small interactive edit the placement hint cache
// exists for. ok is false when k has no constant to change.
func TweakConst(k Kernel, n int, delta int64) (Kernel, bool) {
	var sites []int
	for i, in := range k.F.Body {
		if (in.Op == ir.OpConst || in.Op == ir.OpReg) && len(in.Attrs) > 0 && !in.Type.IsBool() {
			sites = append(sites, i)
		}
	}
	if len(sites) == 0 || delta < 1 || delta > 255 {
		return Kernel{}, false
	}
	f := k.F.Clone()
	in := &f.Body[sites[n%len(sites)]]
	// The generators draw every constant from [-128, 127]; wrapping inside
	// that range keeps the value legal for every lane width they use.
	in.Attrs[0] = (in.Attrs[0]+128+delta)%256 - 128
	return kernelOf(k.Class, f), true
}

// AppendOp returns k with n compute instructions appended, each reading
// the previous one (the first reads k's first output) and exported as a
// new output: an edit that changes the structure, so every stage of the
// pipeline sees new input.
func AppendOp(k Kernel, n int) Kernel {
	f := k.F.Clone()
	src := f.Outputs[0]
	for i := 0; i < n; i++ {
		dst := ir.Port{Name: fmt.Sprintf("%s_ap%d", f.Outputs[0].Name, i), Type: src.Type}
		in := ir.Instr{Dest: dst.Name, Type: dst.Type, Res: ir.ResLut}
		switch {
		case src.Type.IsBool():
			in.Op, in.Args = ir.OpNot, []string{src.Name}
		case src.Type.IsVector():
			// Vector arithmetic lives on DSPs on both bundled targets.
			in.Op, in.Args, in.Res = ir.OpAdd, []string{src.Name, src.Name}, ir.ResAny
		default:
			in.Op, in.Args = ir.OpXor, []string{src.Name, f.Outputs[0].Name}
			if i == 0 {
				in.Op, in.Args = ir.OpNot, []string{src.Name}
			}
		}
		f.Body = append(f.Body, in)
		f.Outputs = append(f.Outputs, dst)
		src = dst
	}
	return kernelOf(k.Class, f)
}
