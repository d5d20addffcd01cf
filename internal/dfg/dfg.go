// Package dfg builds dataflow graphs from intermediate-language functions
// and partitions them into trees for instruction selection (§5.1 of the
// paper). Nodes are instructions and function inputs; edges are
// definition–use relationships.
//
// The partition cuts the graph at root nodes. A node is a root when its
// value must be materialized: it defines a function output, its fanout
// differs from one, or it is a register (registers both break cycles and
// anchor stateful patterns such as add_reg).
package dfg

import (
	"fmt"

	"reticle/internal/ir"
)

// NodeKind discriminates graph nodes.
type NodeKind uint8

// Node kinds.
const (
	KindInput NodeKind = iota
	KindInstr
)

// Node is one vertex of the dataflow graph.
type Node struct {
	ID    int
	Kind  NodeKind
	Name  string    // variable name: input name or instruction destination
	Type  ir.Type   // value type
	Instr *ir.Instr // nil for inputs; points into the source function's body
	Index int       // body index for instruction nodes, -1 for inputs
	Args  []*Node   // operand nodes, in argument order

	fanout   int   // number of instruction arguments consuming this node
	isOutput bool  // defines a function output port
	tree     int32 // id of the Partition tree that holds an instruction node
}

// Fanout returns the number of instruction arguments that consume the node.
func (n *Node) Fanout() int { return n.fanout }

// IsOutput reports whether the node defines a function output.
func (n *Node) IsOutput() bool { return n.isOutput }

// IsWire reports whether the node is a wire instruction.
func (n *Node) IsWire() bool { return n.Kind == KindInstr && n.Instr.Op.IsWire() }

// IsReg reports whether the node is a register instruction.
func (n *Node) IsReg() bool { return n.Kind == KindInstr && n.Instr.Op.IsStateful() }

// Graph is the dataflow graph of one function.
type Graph struct {
	Fn    *ir.Func
	Nodes []*Node // inputs first, then instructions in body order
}

// Build constructs the dataflow graph. The function must check and be well
// formed; Build rejects programs that are not (§6.1), so downstream passes
// can assume trees exist. Node IDs are the value indices of ir.Symbols, so
// the table ir.Resolve returns is the graph's edge list: the nodes, the
// pointers to them and every Args list are three slabs, filled in one pass.
func Build(f *ir.Func) (*Graph, error) {
	syms, err := ir.Resolve(f)
	if err != nil {
		return nil, err
	}
	nin := len(f.Inputs)
	nodes := make([]Node, nin+len(f.Body))
	ptrs := make([]*Node, len(nodes)+len(syms.Args))
	g := &Graph{Fn: f, Nodes: ptrs[:len(nodes):len(nodes)]}
	for i := range nodes {
		g.Nodes[i] = &nodes[i]
	}
	for i, p := range f.Inputs {
		nodes[i] = Node{ID: i, Kind: KindInput, Name: p.Name, Type: p.Type, Index: -1}
	}
	args := ptrs[len(nodes):]
	for i := range f.Body {
		in := &f.Body[i]
		n := len(in.Args)
		nodes[nin+i] = Node{ID: nin + i, Kind: KindInstr, Name: in.Dest, Type: in.Type, Instr: in, Index: i, Args: args[:n:n]}
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

// IsRoot reports whether the node anchors a selection tree.
func (g *Graph) IsRoot(n *Node) bool {
	if n.Kind != KindInstr {
		return false
	}
	return n.isOutput || n.fanout != 1 || n.IsReg()
}

// Tree is one selection tree: a root instruction node and the nodes
// reachable from it without crossing another root or an input. Leaves
// (inputs and other roots) are not part of it.
type Tree struct {
	Root *Node
	id   int32 // what Node.tree says of the root and every interior node
	size int
}

// Contains reports whether the node is the root or interior to the tree.
func (t *Tree) Contains(n *Node) bool { return n.tree == t.id }

// Size returns the number of instruction nodes in the tree.
func (t *Tree) Size() int { return t.size }

// Partition splits the graph into trees, one per root, in body order.
// Every instruction node belongs to exactly one tree.
func (g *Graph) Partition() []*Tree {
	roots := 0
	for _, n := range g.Nodes {
		if g.IsRoot(n) {
			roots++
		}
	}
	slab, trees := make([]Tree, roots), make([]*Tree, 0, roots)
	for _, n := range g.Nodes {
		if !g.IsRoot(n) {
			continue
		}
		t := &slab[len(trees)]
		*t = Tree{Root: n, id: int32(len(trees) + 1), size: 1}
		n.tree = t.id
		g.grow(t, n)
		trees = append(trees, t)
	}
	return trees
}

// grow claims for t everything below n that is neither an input nor a root.
// Such a node has exactly one consumer, so it is reached exactly once.
func (g *Graph) grow(t *Tree, n *Node) {
	for _, a := range n.Args {
		if a.Kind == KindInstr && !g.IsRoot(a) {
			a.tree = t.id
			t.size++
			g.grow(t, a)
		}
	}
}

// CheckPartition verifies the partition invariant: every instruction node
// appears in exactly one tree. It exists for tests and debugging.
func CheckPartition(g *Graph, trees []*Tree) error {
	sizes := make([]int, len(trees)+1)
	for _, n := range g.Nodes {
		if n.Kind != KindInstr {
			continue
		}
		if n.tree < 1 || int(n.tree) > len(trees) {
			return fmt.Errorf("dfg: node %s missing from partition", n.Name)
		}
		sizes[n.tree]++
	}
	for _, t := range trees {
		if t.Root.tree != t.id || sizes[t.id] != t.size {
			return fmt.Errorf("dfg: tree at %s holds %d nodes, claims %d", t.Root.Name, sizes[t.id], t.size)
		}
	}
	return nil
}
