package isel

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/bench"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
	"reticle/internal/tdl"
)

// sortedTrees partitions f the way SelectWithLibrary does.
func sortedTrees(t testing.TB, f *ir.Func) (*graph, []*tree) {
	t.Helper()
	g, err := buildGraph(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, g.partition()
}

// selectShared selects every tree of f through one selector, as
// SelectWithLibrary does, and returns each tree's instructions and the
// number of covers the shape table ended up holding.
func selectShared(t testing.TB, f *ir.Func, lib *Library, opts Options) (perTree [][]asm.Instr, shapes int) {
	t.Helper()
	g, trees := sortedTrees(t, f)
	s := newSelector(lib, opts, len(g.Nodes))
	var body []asm.Instr
	for _, tree := range trees {
		from := len(body)
		var err error
		if body, err = s.selectTree(tree, body); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		perTree = append(perTree, body[from:])
	}
	return perTree, len(s.covers)
}

// raggedTensorDot is the benchmark's cold-dsp kernel: systolic arrays of
// uneven length, each accumulator starting from its own random constant.
func raggedTensorDot(rng *rand.Rand, arrays int) *ir.Func {
	i8 := ir.Int(8)
	b := ir.NewBuilder(fmt.Sprintf("td%d", rng.Intn(1<<20)))
	en := b.Input("en", ir.Bool())
	for k := 0; k < arrays; k++ {
		acc := b.Const(i8, rng.Int63n(256)-128)
		for j, n := 0, 3+rng.Intn(34); j < n; j++ {
			a := b.Input(fmt.Sprintf("a%d_%d", k, j), i8)
			c := b.Input(fmt.Sprintf("b%d_%d", k, j), i8)
			m := b.Mul(i8, a, c, ir.ResAny)
			s := b.Add(i8, m, acc, ir.ResAny)
			acc = b.Reg(i8, s, en, []int64{rng.Int63n(16)}, ir.ResAny)
		}
		y := fmt.Sprintf("y%d", k)
		b.Id(y, i8, acc)
		b.Output(y, i8)
	}
	return b.MustBuild()
}

// TestShapeCoverEqualsPerTreeDP is the differential test for the shape
// table: every tree of every program, selected through the table its
// function shares, equals that tree solved alone through the miss path
// with a fresh table — and the shared concatenation is what
// SelectWithLibrary returns.
func TestShapeCoverEqualsPerTreeDP(t *testing.T) {
	var funcs []*ir.Func
	programs := 600
	if testing.Short() {
		programs = 120
	}
	for seed := 0; seed < programs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		funcs = append(funcs, irgen.Generate(rng, irgen.Config{Instrs: 8 + seed%100, WithVectors: true}))
	}
	for seed := 0; seed < 24; seed++ {
		funcs = append(funcs, raggedTensorDot(rand.New(rand.NewSource(int64(seed))), 2+seed%5))
	}
	paths, err := filepath.Glob("../../examples/programs/*.ret")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled programs: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ir.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		funcs = append(funcs, f)
	}

	trees, hits := 0, 0
	for _, target := range []*tdl.Target{ultrascale.Target(), agilex.Target()} {
		lib, err := NewLibrary(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, greedy := range []bool{false, true} {
			opts := Options{Cost: AreaCost, Greedy: greedy}
			for _, f := range funcs {
				shared, shapes := selectShared(t, f, lib, opts)
				g, ts := sortedTrees(t, f)
				var whole []asm.Instr
				for i, tree := range ts {
					alone, err := newSelector(lib, opts, len(g.Nodes)).selectTree(tree, nil)
					if err != nil {
						t.Fatalf("%s/%s: tree %s alone: %v", target.Name, f.Name, tree.Root.Name, err)
					}
					if !reflect.DeepEqual(shared[i], alone) {
						t.Fatalf("%s/%s greedy=%v: tree %s differs\nshared: %v\nalone:  %v",
							target.Name, f.Name, greedy, tree.Root.Name, shared[i], alone)
					}
					whole = append(whole, alone...)
				}
				af, err := SelectWithLibrary(f, lib, Options{Greedy: greedy})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(af.Body, whole) {
					t.Fatalf("%s/%s greedy=%v: SelectWithLibrary differs from its trees solved alone",
						target.Name, f.Name, greedy)
				}
				trees += len(ts)
				hits += len(ts) - shapes
			}
		}
	}
	// The test is vacuous unless the hit path ran.
	if hits*4 < trees {
		t.Errorf("only %d of %d trees were served from the shape table", hits, trees)
	}
	t.Logf("%d trees, %d replayed from a shared cover", trees, hits)
}

// shapeTDL extends testTDL with the patterns the pairs below need: repeated
// inputs, and a constant inside the matched position.
const shapeTDL = testTDL + `
dsp_square_i8[dsp, 1, 3](a:i8) -> (y:i8) {
    y:i8 = mul(a, a);
}
dsp_mulself_i8[dsp, 1, 3](a:i8, b:i8) -> (y:i8) {
    t0:i8 = mul(a, b);
    y:i8 = add(t0, a);
}
lut_inc_i8[lut, 2, 1](a:i8) -> (y:i8) {
    t0:i8 = const[1];
    y:i8 = add(a, t0);
}
`

// TestShapePairs: hand-written trees that look alike. The first group must
// not share a cover — each differs in something the matcher reads, and
// sharing would select the wrong instruction for the second tree; the last
// must share one and still emit its own names and register inits.
func TestShapePairs(t *testing.T) {
	target, err := tdl.Parse("shape", shapeTDL)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := NewLibrary(target)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		src    string
		shapes int
		want   []string // the body, one printed instruction each
	}{
		{
			"one operand twice vs two operands",
			`def f(a:i8, b:i8) -> (y0:i8, y1:i8) {
				y0:i8 = mul(a, a) @??;
				y1:i8 = mul(a, b) @??;
			}`,
			2,
			[]string{
				"y0:i8 = dsp_square_i8(a) @dsp(??, ??);",
				"y1:i8 = dsp_mul_i8(a, b) @dsp(??, ??);",
			},
		},
		{
			"which operand is the repeated one",
			`def f(a:i8, b:i8) -> (y0:i8, y1:i8) {
				t0:i8 = mul(a, b) @??;
				y0:i8 = add(t0, a) @??;
				t1:i8 = mul(a, b) @??;
				y1:i8 = add(t1, b) @??;
			}`,
			2,
			[]string{
				"y0:i8 = dsp_mulself_i8(a, b) @dsp(??, ??);",
				"y1:i8 = dsp_muladd_i8(a, b, b) @dsp(??, ??);",
			},
		},
		{
			"register fed by itself vs by another value",
			`def f(w:i8, x:i8, en:bool) -> (y:i8, z:i8) {
				t0:i8 = add(y, x) @lut;
				y:i8 = reg[0](t0, en) @lut;
				t1:i8 = add(w, x) @lut;
				z:i8 = reg[0](t1, en) @lut;
			}`,
			2,
			[]string{
				"y:i8 = lut_addrega_i8[0](y, x, en) @lut(??, ??);",
				"z:i8 = lut_addrega_i8[0](w, x, en) @lut(??, ??);",
			},
		},
		{
			"resource annotation",
			`def f(a:i8, b:i8) -> (y0:i8, y1:i8, y2:i8) {
				y0:i8 = add(a, b) @lut;
				y1:i8 = add(a, b) @dsp;
				y2:i8 = add(a, b) @??;
			}`,
			3,
			[]string{
				"y0:i8 = lut_add_i8(a, b) @lut(??, ??);",
				"y1:i8 = dsp_add_i8(a, b) @dsp(??, ??);",
				"y2:i8 = dsp_add_i8(a, b) @dsp(??, ??);",
			},
		},
		{
			"interior child vs the same child with fanout 2",
			`def f(a:i8, b:i8, c:i8) -> (y0:i8, y1:i8, y2:i8) {
				t0:i8 = mul(a, b) @??;
				y0:i8 = add(t0, c) @??;
				t1:i8 = mul(a, b) @??;
				y1:i8 = add(t1, c) @??;
				y2:i8 = not(t1) @lut;
			}`,
			4, // muladd, mul, add over a leaf, not
			[]string{
				"y0:i8 = dsp_muladd_i8(a, b, c) @dsp(??, ??);",
				"t1:i8 = dsp_mul_i8(a, b) @dsp(??, ??);",
				"y1:i8 = dsp_add_i8(t1, c) @dsp(??, ??);",
				"y2:i8 = lut_not_i8(t1) @lut(??, ??);",
			},
		},
		{
			"constants that differ where a pattern matches them",
			`def f(a:i8, b:i8) -> (y0:i8, y1:i8) {
				c0:i8 = const[1];
				y0:i8 = add(a, c0) @lut;
				c1:i8 = const[2];
				y1:i8 = add(b, c1) @lut;
			}`,
			2,
			[]string{
				"y0:i8 = lut_inc_i8(a) @lut(??, ??);",
				"c1:i8 = const[2];",
				"y1:i8 = lut_add_i8(b, c1) @lut(??, ??);",
			},
		},
		{
			"register inits and names only: one cover, own attributes",
			`def f(a:i8, b:i8, c:i8, d:i8, en:bool, go:bool) -> (y0:i8, y1:i8) {
				t0:i8 = add(a, b) @lut;
				y0:i8 = reg[3](t0, en) @lut;
				t1:i8 = add(c, d) @lut;
				y1:i8 = reg[-7](t1, go) @lut;
			}`,
			1,
			[]string{
				"y0:i8 = lut_addrega_i8[3](a, b, en) @lut(??, ??);",
				"y1:i8 = lut_addrega_i8[-7](c, d, go) @lut(??, ??);",
			},
		},
	}
	for _, tc := range cases {
		f, err := ir.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		perTree, shapes := selectShared(t, f, lib, Options{Cost: AreaCost})
		if shapes != tc.shapes {
			t.Errorf("%s: %d covers in the shape table, want %d", tc.name, shapes, tc.shapes)
		}
		var got []string
		for _, instrs := range perTree {
			for _, in := range instrs {
				got = append(got, in.String())
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: selected\n  %q\nwant\n  %q", tc.name, got, tc.want)
		}
	}
}

// TestSelectAllocsPerShape: with one cover per shape, what a further tree
// of a known shape allocates is its own output (an argument slice and a
// register-init slice per instruction) and nothing for the DP. Doubling
// the tree count may not double a call's allocations, and the selector's
// own share grows by a handful per tree, not by a DP's worth (~85 before
// the shape table).
func TestSelectAllocsPerShape(t *testing.T) {
	lib, err := NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	whole := func(size int) (allocs float64) {
		f, err := bench.TensorDot(5, size)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := SelectWithLibrary(f, lib, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := whole(18), whole(36); large >= 2*small {
		t.Errorf("SelectWithLibrary: %v allocs for 5x18, %v for 5x36: doubled", small, large)
	}

	selector := func(size int) (allocs float64, trees int) {
		f, err := bench.TensorDot(5, size)
		if err != nil {
			t.Fatal(err)
		}
		g, ts := sortedTrees(t, f)
		return testing.AllocsPerRun(10, func() {
			s := newSelector(lib, Options{Cost: AreaCost}, len(g.Nodes))
			body := make([]asm.Instr, 0, len(f.Body))
			for _, tree := range ts {
				if body, err = s.selectTree(tree, body); err != nil {
					t.Fatal(err)
				}
			}
		}), len(ts)
	}
	small, smallTrees := selector(18)
	large, largeTrees := selector(36)
	if perTree := (large - small) / float64(largeTrees-smallTrees); perTree > 3 {
		t.Errorf("selector: %v allocs for %d trees, %v for %d: %.1f per further tree, want at most 3",
			small, smallTrees, large, largeTrees, perTree)
	}
}

// TestCompilePatternRejectsUnusedInput: a definition input the body never
// reads has no subject node to bind; it is refused when the library is
// built rather than left to fail inside a match.
func TestCompilePatternRejectsUnusedInput(t *testing.T) {
	target, err := tdl.Parse("t", `
lut_add_i8[lut, 8, 2](a:i8, b:i8, spare:i8) -> (y:i8) {
    y:i8 = add(a, b);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLibrary(target); err == nil {
		t.Error("NewLibrary accepted a definition with an unused input")
	}
}

// TestTreeRootFusesOnlyWhereThePatternIsPlaced: register feedback lets a
// match reach the tree root again below its starting point. That is legal
// only for a pattern placed at the root itself; one placed at an interior
// node must treat the root as a boundary, or it would swallow the very
// register whose cover is asking for it.
func TestTreeRootFusesOnlyWhereThePatternIsPlaced(t *testing.T) {
	target, err := tdl.Parse("feedback", testTDL+`
lut_mulreg_i8[lut, 1, 1](a:i8, b:i8, en:bool) -> (y:i8) {
    t0:i8 = reg[0](a, en);
    y:i8 = mul(t0, b);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ir.Parse(`def f(x:i8, z:i8, en:bool) -> (y:i8) {
		t1:i8 = mul(y, z) @lut;
		t0:i8 = add(t1, x) @lut;
		y:i8 = reg[0](t0, en) @lut;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := NewLibrary(target)
	if err != nil {
		t.Fatal(err)
	}
	af, err := SelectWithLibrary(f, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"t1:i8 = lut_mul_i8(y, z) @lut(??, ??);",
		"y:i8 = lut_addrega_i8[0](t1, x, en) @lut(??, ??);",
	}
	var got []string
	for _, in := range af.Body {
		got = append(got, in.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selected\n  %q\nwant\n  %q", got, want)
	}
}

// TestCheckedTableSelectsAlike: selection from the table ir.ParseSymbols
// hands back selects what selection that resolves f itself does, and
// closes with the same assembly table.
func TestCheckedTableSelectsAlike(t *testing.T) {
	_, lib := testLib(t)
	for seed := int64(0); seed < 64; seed++ {
		g := irgen.Generate(rand.New(rand.NewSource(seed)), irgen.Config{Instrs: 24, WithVectors: seed%2 == 0})
		f, checked, err := ir.ParseSymbols(g.String())
		if err != nil {
			t.Fatal(err)
		}
		cold, coldSyms, coldErr := SelectWithSymbols(f, nil, lib, Options{})
		warm, warmSyms, warmErr := SelectWithSymbols(f, &checked, lib, Options{})
		if (coldErr == nil) != (warmErr == nil) {
			t.Fatalf("seed %d: errors differ: %v vs %v", seed, coldErr, warmErr)
		}
		if coldErr != nil {
			continue
		}
		if cold.String() != warm.String() || !slices.Equal(coldSyms.Args, warmSyms.Args) || !slices.Equal(coldSyms.Outputs, warmSyms.Outputs) {
			t.Fatalf("seed %d: selection from the checked table differs", seed)
		}
	}
}
