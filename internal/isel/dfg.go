package isel

import "reticle/internal/ir"

// The dataflow graph of a function, cut into trees for selection (§5.1 of
// the paper). Nodes are instructions and function inputs; edges are
// definition–use relationships.
//
// The partition cuts the graph at root nodes. A node is a root when its
// value must be materialized: it defines a function output, its fanout
// differs from one, or it is a register (registers both break cycles and
// anchor stateful patterns such as add_reg).

// nodeKind discriminates graph nodes.
type nodeKind uint8

// Node kinds.
const (
	kindInput nodeKind = iota
	kindInstr
)

// node is one vertex of the dataflow graph.
type node struct {
	ID    int
	Kind  nodeKind
	Name  string    // variable name: input name or instruction destination
	Type  ir.Type   // value type
	Instr *ir.Instr // nil for inputs; points into the source function's body
	Index int       // body index for instruction nodes, -1 for inputs
	Args  []*node   // operand nodes, in argument order

	fanout   int   // number of instruction arguments consuming this node
	isOutput bool  // defines a function output port
	tree     int32 // id of the partition tree that holds an instruction node
}

// isWire reports whether the node is a wire instruction.
func (n *node) isWire() bool { return n.Kind == kindInstr && n.Instr.Op.IsWire() }

// isReg reports whether the node is a register instruction.
func (n *node) isReg() bool { return n.Kind == kindInstr && n.Instr.Op.IsStateful() }

// graph is the dataflow graph of one function.
type graph struct {
	Fn    *ir.Func
	Nodes []*node // inputs first, then instructions in body order
}

// buildGraph constructs the dataflow graph. The function must check and be
// well formed; buildGraph rejects programs that are not (§6.1), so
// selection can assume trees exist. Node IDs are the value indices of
// ir.Symbols, so the table ir.Resolve returns is the graph's edge list:
// the nodes, the pointers to them and every Args list are three slabs,
// filled in one pass.
//
// checked, when not nil, is the table of a check f has already passed,
// and only the well-formedness half of ir.Resolve runs.
func buildGraph(f *ir.Func, checked *ir.Symbols) (*graph, error) {
	var syms ir.Symbols
	var err error
	if checked != nil {
		syms, err = *checked, ir.Ordered(f, *checked)
	} else {
		syms, err = ir.Resolve(f)
	}
	if err != nil {
		return nil, err
	}
	nin := len(f.Inputs)
	nodes := make([]node, nin+len(f.Body))
	ptrs := make([]*node, len(nodes)+len(syms.Args))
	g := &graph{Fn: f, Nodes: ptrs[:len(nodes):len(nodes)]}
	for i := range nodes {
		g.Nodes[i] = &nodes[i]
	}
	for i, p := range f.Inputs {
		nodes[i] = node{ID: i, Kind: kindInput, Name: p.Name, Type: p.Type, Index: -1}
	}
	args := ptrs[len(nodes):]
	for i := range f.Body {
		in := &f.Body[i]
		n := len(in.Args)
		nodes[nin+i] = node{ID: nin + i, Kind: kindInstr, Name: in.Dest, Type: in.Type, Instr: in, Index: i, Args: args[:n:n]}
		args = args[n:]
	}
	for i, v := range syms.Args {
		ptrs[len(nodes)+i] = &nodes[v]
		nodes[v].fanout++
	}
	for _, v := range syms.Outputs {
		nodes[v].isOutput = true
	}
	return g, nil
}

// isRoot reports whether the node anchors a selection tree.
func (g *graph) isRoot(n *node) bool {
	if n.Kind != kindInstr {
		return false
	}
	return n.isOutput || n.fanout != 1 || n.isReg()
}

// tree is one selection tree: a root instruction node and the nodes
// reachable from it without crossing another root or an input. Leaves
// (inputs and other roots) are not part of it.
type tree struct {
	Root *node
	id   int32 // what node.tree says of the root and every interior node
}

// contains reports whether the node is the root or interior to the tree.
func (t *tree) contains(n *node) bool { return n.tree == t.id }

// partition splits the graph into trees, one per root, in body order.
// Every instruction node belongs to exactly one tree.
func (g *graph) partition() []*tree {
	roots := 0
	for _, n := range g.Nodes {
		if g.isRoot(n) {
			roots++
		}
	}
	slab, trees := make([]tree, roots), make([]*tree, 0, roots)
	for _, n := range g.Nodes {
		if !g.isRoot(n) {
			continue
		}
		t := &slab[len(trees)]
		*t = tree{Root: n, id: int32(len(trees) + 1)}
		n.tree = t.id
		g.grow(t, n)
		trees = append(trees, t)
	}
	return trees
}

// grow claims for t everything below n that is neither an input nor a root.
// Such a node has exactly one consumer, so it is reached exactly once.
func (g *graph) grow(t *tree, n *node) {
	for _, a := range n.Args {
		if a.Kind == kindInstr && !g.isRoot(a) {
			a.tree = t.id
			g.grow(t, a)
		}
	}
}
