package isel

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"reticle/internal/ir"
)

func mustGraph(t *testing.T, src string) *graph {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildGraph(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lookup returns the node defining the named variable.
func lookup(g *graph, name string) *node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

func TestBuildSimple(t *testing.T) {
	g := mustGraph(t, `
def f(a:i8, b:i8, c:i8) -> (t1:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
}
`)
	if len(g.Nodes) != 5 {
		t.Fatalf("nodes = %d", len(g.Nodes))
	}
	t0 := lookup(g, "t0")
	t1 := lookup(g, "t1")
	a := lookup(g, "a")
	if t0.fanout != 1 || a.fanout != 1 {
		t.Errorf("fanouts: t0=%d a=%d", t0.fanout, a.fanout)
	}
	if !t1.isOutput || t0.isOutput {
		t.Error("output marking wrong")
	}
	if g.isRoot(t0) {
		t.Error("t0 (fanout 1, not output) should not be a root")
	}
	if !g.isRoot(t1) {
		t.Error("t1 (output) must be a root")
	}
}

func TestPartitionMulAddIsOneTree(t *testing.T) {
	g := mustGraph(t, `
def f(a:i8, b:i8, c:i8) -> (t1:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
}
`)
	trees := g.partition()
	if len(trees) != 1 {
		t.Fatalf("trees = %d", len(trees))
	}
	if treeSize(g, trees[0]) != 2 {
		t.Errorf("tree size = %d", treeSize(g, trees[0]))
	}
	if err := checkPartition(g, trees); err != nil {
		t.Error(err)
	}
}

func TestPartitionFanoutCut(t *testing.T) {
	// t0 feeds both t1 and t2: it must be its own tree.
	g := mustGraph(t, `
def f(a:i8, b:i8) -> (t1:i8, t2:i8) {
    t0:i8 = add(a, b) @??;
    t1:i8 = mul(t0, a) @??;
    t2:i8 = mul(t0, b) @??;
}
`)
	trees := g.partition()
	if len(trees) != 3 {
		t.Fatalf("trees = %d, want 3", len(trees))
	}
	for _, tr := range trees {
		if treeSize(g, tr) != 1 {
			t.Errorf("tree at %s has size %d", tr.Root.Name, treeSize(g, tr))
		}
	}
	if err := checkPartition(g, trees); err != nil {
		t.Error(err)
	}
}

func TestPartitionRegIsRoot(t *testing.T) {
	g := mustGraph(t, `
def f(a:i8, b:i8, en:bool) -> (y:i8) {
    t0:i8 = add(a, b) @??;
    y:i8 = reg[0](t0, en) @??;
}
`)
	trees := g.partition()
	if len(trees) != 1 {
		t.Fatalf("trees = %d", len(trees))
	}
	tr := trees[0]
	if !tr.Root.isReg() {
		t.Error("root is not the reg")
	}
	if treeSize(g, tr) != 2 {
		t.Errorf("add_reg tree size = %d, want 2 (reg + add)", treeSize(g, tr))
	}
}

func TestPartitionCycleThroughReg(t *testing.T) {
	g := mustGraph(t, `
def fig12b(x:bool) -> (t3:i8) {
    t0:bool = const[1];
    t1:i8 = const[4];
    t2:i8 = add(t3, t1) @??;
    t3:i8 = reg[0](t2, t0) @??;
}
`)
	trees := g.partition()
	if err := checkPartition(g, trees); err != nil {
		t.Fatal(err)
	}
	// t3 is a reg root; its tree contains the add (fanout-1) and const t1.
	var regTree *tree
	for _, tr := range trees {
		if tr.Root.Name == "t3" {
			regTree = tr
		}
	}
	if regTree == nil {
		t.Fatal("no tree rooted at t3")
	}
	t2 := lookup(g, "t2")
	if !regTree.contains(t2) {
		t.Error("t2 not interior to the reg tree")
	}
	// The cycle edge t3 -> t2 terminates at the root boundary, not a loop.
	// t3, t2, t0 and t1, each once.
	if treeSize(g, regTree) != 4 {
		t.Errorf("reg tree size = %d, want 4: root also interior?", treeSize(g, regTree))
	}
}

func TestBuildRejectsIllFormed(t *testing.T) {
	f, err := ir.Parse(`
def bad(x:bool) -> (t1:i8) {
    t0:i8 = const[4];
    t1:i8 = add(t1, t0) @??;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildGraph(f, nil); err == nil {
		t.Error("buildGraph accepted combinational cycle")
	}
}

// TestBuildRejectsHandBuiltFuncs: in-process callers hand buildGraph functions no
// parser has seen, so every Check rule runs here too — down to a function
// with nothing in it but an output.
func TestBuildRejectsHandBuiltFuncs(t *testing.T) {
	i8 := ir.Int(8)
	y := []ir.Port{{Name: "y", Type: i8}}
	cases := []struct {
		f    *ir.Func
		want string
	}{
		{&ir.Func{Name: "f", Outputs: y}, `ir: function f: output "y" is never defined`},
		{&ir.Func{Name: "f", Inputs: y, Outputs: y}, `ir: function f: output "y" names an input; use id`},
		{&ir.Func{Name: "f", Outputs: y, Body: []ir.Instr{{Dest: "y", Type: i8, Op: ir.OpId, Args: []string{"ghost"}}}},
			`ir: function f: instruction 0 (y): argument "ghost" is undefined`},
	}
	for _, c := range cases {
		if _, err := buildGraph(c.f, nil); err == nil || err.Error() != c.want {
			t.Errorf("buildGraph error = %v, want %s", err, c.want)
		}
	}
}

func TestWireNodesJoinConsumerTree(t *testing.T) {
	g := mustGraph(t, `
def f(a:i8) -> (y:i8) {
    t0:i8 = const[5];
    t1:i8 = sll[1](t0);
    y:i8 = add(t1, a) @??;
}
`)
	trees := g.partition()
	if len(trees) != 1 {
		t.Fatalf("trees = %d", len(trees))
	}
	if treeSize(g, trees[0]) != 3 {
		t.Errorf("tree size = %d, want 3", treeSize(g, trees[0]))
	}
}

func TestSharedWireNodeIsItsOwnTree(t *testing.T) {
	g := mustGraph(t, `
def f(a:i8) -> (y:i8, z:i8) {
    t0:i8 = const[5];
    y:i8 = add(t0, a) @??;
    z:i8 = mul(t0, a) @??;
}
`)
	trees := g.partition()
	if len(trees) != 3 {
		t.Fatalf("trees = %d, want 3 (const + 2 compute)", len(trees))
	}
	if err := checkPartition(g, trees); err != nil {
		t.Error(err)
	}
}

func TestOutputWithInternalUseIsRoot(t *testing.T) {
	// y is an output but also feeds t1: it must still be a root.
	g := mustGraph(t, `
def f(a:i8, b:i8) -> (y:i8, t1:i8) {
    y:i8 = add(a, b) @??;
    t1:i8 = mul(y, a) @??;
}
`)
	y := lookup(g, "y")
	if !g.isRoot(y) {
		t.Error("output with one use not a root")
	}
}

func TestNodePredicates(t *testing.T) {
	g := mustGraph(t, `
def f(a:i8, en:bool) -> (y:i8) {
    t0:i8 = sll[1](a);
    y:i8 = reg[0](t0, en) @??;
}
`)
	t0 := lookup(g, "t0")
	y := lookup(g, "y")
	a := lookup(g, "a")
	if !t0.isWire() || t0.isReg() {
		t.Error("t0 predicates wrong")
	}
	if y.isWire() || !y.isReg() {
		t.Error("y predicates wrong")
	}
	if a.Kind != kindInput || g.isRoot(a) {
		t.Error("input misclassified")
	}
}

// chain builds n multiply-add-register stages in a row.
func chain(n int) *ir.Func {
	i8 := ir.Int(8)
	b := ir.NewBuilder("chain")
	en := b.Input("en", ir.Bool())
	acc := b.Const(i8, 1)
	for j := 0; j < n; j++ {
		m := b.Mul(i8, b.Input(fmt.Sprintf("a%d", j), i8), b.Input(fmt.Sprintf("b%d", j), i8), ir.ResAny)
		acc = b.Reg(i8, b.Add(i8, m, acc, ir.ResAny), en, nil, ir.ResAny)
	}
	b.Id("y", i8, acc)
	b.Output("y", i8)
	return b.MustBuild()
}

// TestPartitionInBodyOrder: trees come out in ascending root body order,
// which is the order selection emits them in without sorting.
func TestPartitionInBodyOrder(t *testing.T) {
	funcs := []*ir.Func{chain(40)}
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
	for _, f := range funcs {
		g, err := buildGraph(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		trees := g.partition()
		if err := checkPartition(g, trees); err != nil {
			t.Error(err)
		}
		for i := 1; i < len(trees); i++ {
			if trees[i-1].Root.Index >= trees[i].Root.Index {
				t.Errorf("%s: tree %d rooted at body index %d follows one rooted at %d",
					f.Name, i, trees[i].Root.Index, trees[i-1].Root.Index)
			}
		}
	}
}

// TestBuildAllocationBudget: buildGraph allocates a fixed set of slabs per call
// — the symbol table, the sort scratch, the nodes, the pointers to them,
// the graph — and nothing per node, partition two slabs and nothing per
// tree. The one thing that scales is the runtime's own name map, which adds
// a table per ~900 names: 1,282 names make it 10 allocations instead of 8.
func TestBuildAllocationBudget(t *testing.T) {
	build := func(stages int) (build, partition float64) {
		f := chain(stages)
		g, err := buildGraph(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { buildGraph(f, nil) }), testing.AllocsPerRun(20, func() { g.partition() })
	}
	b16, p16 := build(16)
	b64, p64 := build(64)
	b256, p256 := build(256)
	if b16 != b64 || b256 > 10 {
		t.Errorf("buildGraph: %v, %v, %v allocations for 16, 64, 256 stages; want the first two equal and the last at most 10", b16, b64, b256)
	}
	if p16 != 2 || p64 != 2 || p256 != 2 {
		t.Errorf("partition: %v, %v, %v allocations; want 2 each", p16, p64, p256)
	}
}

// checkPartition verifies the partition invariant: every instruction node
// appears in exactly one tree, and each tree holds its root.
func checkPartition(g *graph, trees []*tree) error {
	for _, n := range g.Nodes {
		if n.Kind == kindInstr && (n.tree < 1 || int(n.tree) > len(trees)) {
			return fmt.Errorf("node %s missing from partition", n.Name)
		}
	}
	for _, t := range trees {
		if t.Root.tree != t.id {
			return fmt.Errorf("tree at %s does not hold its root", t.Root.Name)
		}
	}
	return nil
}

// treeSize counts the instruction nodes of t.
func treeSize(g *graph, t *tree) int {
	n := 0
	for _, v := range g.Nodes {
		if v.Kind == kindInstr && t.contains(v) {
			n++
		}
	}
	return n
}
