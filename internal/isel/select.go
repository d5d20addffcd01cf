package isel

import (
	"encoding/binary"
	"fmt"
	"math"

	"reticle/internal/asm"
	"reticle/internal/ir"
	"reticle/internal/tdl"
)

// CostFn scores a pattern; the selector minimizes total score per tree.
type CostFn func(*tdl.Def) int64

// AreaCost is the default cost model: primarily area, latency as the
// tie-break.
func AreaCost(d *tdl.Def) int64 { return int64(d.Area)*1024 + int64(d.Latency) }

// Options configures selection.
type Options struct {
	Cost CostFn
	// Greedy switches from optimal dynamic programming to top-down maximal
	// munch (first, largest matching pattern wins). Used by the ablation
	// benchmarks; production selection keeps the default.
	Greedy bool
}

// SelectWithLibrary lowers an IR function to an assembly function against
// the target a pre-compiled pattern library was built from, using optimal
// tree covering (or greedy maximal munch when requested). The library is
// read-only here: all selection scratch (tree partitions, the shape table)
// is allocated per call, so concurrent selections may share one library.
func SelectWithLibrary(f *ir.Func, lib *Library, opts Options) (*asm.Func, error) {
	af, _, err := SelectWithSymbols(f, nil, lib, opts)
	return af, err
}

// SelectWithSymbols is SelectWithLibrary handing back the symbol table of
// the check that closes selection (asm.Resolve against the library's
// target). Layout optimization rewrites only names and locations, and
// placement only locations, so the table stays valid through timing.
// checked, when not nil, is the table ir.Check built for f (see
// ir.ParseSymbols), so f's names are not resolved a second time.
func SelectWithSymbols(f *ir.Func, checked *ir.Symbols, lib *Library, opts Options) (*asm.Func, ir.Symbols, error) {
	if opts.Cost == nil {
		opts.Cost = AreaCost
	}
	g, err := buildGraph(f, checked)
	if err != nil {
		return nil, ir.Symbols{}, err
	}
	out := &asm.Func{
		Name:    f.Name,
		Inputs:  append([]ir.Port(nil), f.Inputs...),
		Outputs: append([]ir.Port(nil), f.Outputs...),
		Body:    make([]asm.Instr, 0, len(f.Body)),
	}
	// partition emits trees in ascending root body order: readable, stable
	// output without sorting.
	s := newSelector(lib, opts, len(g.Nodes))
	for _, t := range g.partition() {
		if out.Body, err = s.selectTree(t, out.Body); err != nil {
			return nil, ir.Symbols{}, fmt.Errorf("isel: function %s: %w", f.Name, err)
		}
	}
	syms, err := asm.Resolve(out, lib.Target)
	if err != nil {
		return nil, ir.Symbols{}, fmt.Errorf("isel: produced invalid assembly: %w", err)
	}
	return out, syms, nil
}

// selector is the scratch of one SelectWithLibrary call: the shape table,
// and the buffers that the walk, the covering DP and the emit reuse from
// tree to tree. Nodes of the tree at hand are addressed by local index,
// their first-visit position in the preorder walk (the root is 0), which
// is what lets trees of one shape share a cover.
type selector struct {
	lib    *Library
	opts   Options
	covers map[string]*cover // shape signature -> solved cover

	local    []int32 // node ID -> local index + 1; 0 outside the walk
	nodes    []*node // local index -> node
	interior []bool  // local index -> in the tree and not its root
	emitted  []bool  // local index -> already emitted
	sig      []byte
	cov      *cover // the cover being solved
}

func newSelector(lib *Library, opts Options, graphNodes int) *selector {
	return &selector{
		lib:    lib,
		opts:   opts,
		covers: make(map[string]*cover),
		local:  make([]int32, graphNodes),
	}
}

// cover is the solved DP of one tree shape, in local indices: replayed
// over any tree with the same signature it yields that tree's selection.
type cover struct {
	choices []choice // by local index; set for the root and interior nodes
	refs    []int32  // backing store of every choice's bindings
}

// choice is the selected cover for one in-tree node.
type choice struct {
	pat  *Pattern // nil for the wire-instruction default cover
	cost int64
	done bool
	// refs[off:] holds the local index bound to each of pat.Def.Inputs,
	// then the register node captured for each of pat.RegBodies; for the
	// wire default, the local index of each argument.
	off int
}

const infCost = int64(math.MaxInt64 / 4)

// Signature tags. Every field after a tag is fixed-width or a varint, so
// the encoding is prefix-free and equal signatures mean equal shapes.
const (
	sigNode = iota // in-tree node: everything matchNode reads, then its children
	sigLeaf        // node outside the tree, first visit: matched by type alone
	sigRef         // node visited before: an operand used twice, or the root through feedback
)

// selectTree appends the tree's instructions to out: it walks the tree,
// solves its shape unless an earlier tree of this call had the same one,
// and replays the cover over the tree's own nodes.
func (s *selector) selectTree(t *tree, out []asm.Instr) ([]asm.Instr, error) {
	for _, n := range s.nodes {
		s.local[n.ID] = 0 // the previous tree's
	}
	s.nodes, s.interior, s.sig = s.nodes[:0], s.interior[:0], s.sig[:0]
	s.walk(t, t.Root)
	c, ok := s.covers[string(s.sig)]
	if !ok {
		c = &cover{choices: make([]choice, len(s.nodes)), refs: make([]int32, 0, 4*len(s.nodes))}
		s.cov = c
		if err := s.cover(0); err != nil {
			return nil, err // not cached: the message names this tree's node
		}
		s.covers[string(s.sig)] = c
	}
	s.emitted = append(s.emitted[:0], make([]bool, len(s.nodes))...)
	return s.emit(c, 0, out)
}

// walk visits n in preorder, assigns it a local index and appends to the
// signature exactly what cover, match and matchNode read of it. A node
// outside the tree is a leaf to every pattern (its type and identity are
// all that is read); a stateful node's init values are captured at emit,
// not matched, so only their count is part of the shape.
func (s *selector) walk(t *tree, n *node) {
	if li := s.local[n.ID]; li != 0 {
		s.sig = binary.AppendUvarint(append(s.sig, sigRef), uint64(li-1))
		return
	}
	s.nodes = append(s.nodes, n)
	s.local[n.ID] = int32(len(s.nodes))
	inTree := t.contains(n)
	s.interior = append(s.interior, inTree && n != t.Root)
	typ := [...]byte{byte(n.Type.Kind()), byte(n.Type.Width()), byte(n.Type.Lanes()), byte(n.Type.Lanes() >> 8)}
	if !inTree {
		s.sig = append(append(s.sig, sigLeaf), typ[:]...)
		return
	}
	in := n.Instr
	s.sig = append(append(s.sig, sigNode, byte(in.Op), byte(in.Res)), typ[:]...)
	s.sig = binary.AppendUvarint(s.sig, uint64(len(n.Args)))
	s.sig = binary.AppendUvarint(s.sig, uint64(len(in.Attrs)))
	if !in.Op.IsStateful() {
		for _, a := range in.Attrs {
			s.sig = binary.AppendVarint(s.sig, a)
		}
	}
	for _, a := range n.Args {
		s.walk(t, a)
	}
}

// cover computes the best cover for in-tree node li and recursively for
// every node its cover exposes as a boundary.
func (s *selector) cover(li int32) error {
	if s.cov.choices[li].done {
		return nil
	}
	// Mark in progress defensively; trees are acyclic so this never recurs.
	s.cov.choices[li] = choice{cost: infCost, done: true}

	n := s.nodes[li]
	best := choice{cost: infCost}

	// Default cover for wire nodes: emit the wire instruction itself,
	// at zero cost, paying only for in-tree children.
	if n.isWire() {
		cost := int64(0)
		ok := true
		for _, a := range n.Args {
			c, err := s.childCost(s.local[a.ID] - 1)
			if err != nil {
				return err
			}
			if c >= infCost {
				ok = false
				break
			}
			cost += c
		}
		if ok {
			best = choice{cost: cost, off: len(s.cov.refs)}
			for _, a := range n.Args {
				s.cov.refs = append(s.cov.refs, s.local[a.ID]-1)
			}
		}
	}

	for _, pat := range s.lib.Candidates(n.Instr.Op) {
		ch, ok, err := s.match(pat, li)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if ch.cost < best.cost {
			best = ch
		}
		if s.opts.Greedy && best.pat != nil {
			break
		}
	}

	if best.cost >= infCost && !n.isWire() {
		res := n.Instr.Res
		return fmt.Errorf("no %s pattern covers %s (%s of type %s); "+
			"the target does not support this operation at this type",
			res, n.Name, n.Instr.Op, n.Type)
	}
	best.done = true
	s.cov.choices[li] = best
	return nil
}

// childCost returns the cost of producing a node consumed at a pattern
// boundary: zero if it lives outside the tree (an input or another tree's
// root), else the node's own best cover cost.
func (s *selector) childCost(li int32) (int64, error) {
	if !s.interior[li] {
		return 0, nil
	}
	if err := s.cover(li); err != nil {
		return 0, err
	}
	return s.cov.choices[li].cost, nil
}

// match attempts to place pattern pat with its root at in-tree node at.
// Bindings go straight into the cover's backing store; those of a
// candidate that matched and then lost on cost are left behind unused.
func (s *selector) match(pat *Pattern, at int32) (choice, bool, error) {
	off := len(s.cov.refs)
	for i := len(pat.Def.Inputs) + len(pat.RegBodies); i > 0; i-- {
		s.cov.refs = append(s.cov.refs, -1)
	}
	if !s.matchNode(pat.Root, s.nodes[at], at, pat, s.cov.refs[off:]) {
		s.cov.refs = s.cov.refs[:off]
		return choice{}, false, nil
	}
	cost := s.opts.Cost(pat.Def)
	for i := range pat.Def.Inputs {
		// Covering a child appends to refs, so index it afresh each time.
		c, err := s.childCost(s.cov.refs[off+i])
		if err != nil {
			return choice{}, false, err
		}
		if c >= infCost {
			return choice{}, false, nil
		}
		cost += c
	}
	return choice{pat: pat, cost: cost, off: off}, true, nil
}

// matchNode structurally matches pattern node p against subject node n,
// recording leaf and register bindings in bind (laid out as choice.off
// describes). at is the node the pattern root is placed at; interior
// pattern nodes may only consume it (the tree root reached again through
// register feedback) or nodes interior to this tree: their values are
// fused away and must not be needed elsewhere.
func (s *selector) matchNode(p *PNode, n *node, at int32, pat *Pattern, bind []int32) bool {
	li := s.local[n.ID] - 1
	if p.Leaf != "" {
		if n.Type != p.Type {
			return false
		}
		if prev := bind[p.input]; prev >= 0 {
			return prev == li // repeated input: must be the very same value
		}
		bind[p.input] = li
		return true
	}
	if n.Kind != kindInstr {
		return false
	}
	if li != at && !s.interior[li] {
		return false // fusing would hide a value that others consume
	}
	in := n.Instr
	if in.Op != p.Op || in.Type != p.Type {
		return false
	}
	// Resource annotations are hard constraints on compute instructions.
	if in.Op.IsCompute() && in.Res != ir.ResAny && in.Res != pat.Def.Prim {
		return false
	}
	if in.Op.IsStateful() {
		bind[len(pat.Def.Inputs)+p.reg] = li
	} else if !attrsEqual(in.Attrs, p.Attrs) {
		return false
	}
	if len(in.Args) != len(p.Args) {
		return false
	}
	for i, pa := range p.Args {
		if !s.matchNode(pa, n.Args[i], at, pat, bind) {
			return false
		}
	}
	return true
}

func attrsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// emit appends the cover of node li (and, first, of every boundary node it
// consumes) as assembly instructions. The cover says which pattern and
// which local indices; names and register inits come from the tree at
// hand, so trees that share a cover keep their own.
func (s *selector) emit(c *cover, li int32, out []asm.Instr) ([]asm.Instr, error) {
	if s.emitted[li] {
		return out, nil
	}
	s.emitted[li] = true
	ch, n := c.choices[li], s.nodes[li]
	if !ch.done {
		return nil, fmt.Errorf("internal: no cover recorded for %s", n.Name)
	}
	bound := len(n.Args) // wire default cover
	if ch.pat != nil {
		bound = len(ch.pat.Def.Inputs)
	}
	var err error
	for _, b := range c.refs[ch.off : ch.off+bound] {
		if s.interior[b] {
			if out, err = s.emit(c, b, out); err != nil {
				return nil, err
			}
		}
	}
	if ch.pat == nil {
		return append(out, asm.WireInstr(*n.Instr)), nil
	}
	args := make([]string, bound)
	for i, b := range c.refs[ch.off : ch.off+bound] {
		args[i] = s.nodes[b].Name
	}
	var attrs []int64
	for i, r := range c.refs[ch.off+bound : ch.off+bound+len(ch.pat.RegBodies)] {
		if r < 0 {
			return nil, fmt.Errorf("internal: pattern %s matched without capturing register %d",
				ch.pat.Def.Name, ch.pat.RegBodies[i])
		}
		if init := asm.NormalizeRegAttrs(*s.nodes[r].Instr); attrs == nil {
			attrs = init
		} else {
			attrs = append(attrs, init...)
		}
	}
	return append(out, asm.Instr{
		Dest:  n.Name,
		Type:  n.Type,
		Name:  ch.pat.Def.Name,
		Attrs: attrs,
		Args:  args,
		Loc:   asm.Unplaced(ch.pat.Def.Prim),
	}), nil
}
