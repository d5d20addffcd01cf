package isel

import (
	"fmt"
	"math"
	"sort"

	"reticle/internal/asm"
	"reticle/internal/dfg"
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

// Select lowers an IR function to an assembly function against the target,
// using optimal tree covering (or greedy maximal munch when requested).
func Select(f *ir.Func, target *tdl.Target, opts Options) (*asm.Func, error) {
	lib, err := NewLibrary(target)
	if err != nil {
		return nil, err
	}
	return SelectWithLibrary(f, lib, opts)
}

// SelectWithLibrary is Select with a pre-compiled pattern library, for
// callers compiling many programs against one target. The library is
// read-only here: all selection scratch (tree partitions, cover tables)
// is allocated per call, so concurrent selections may share one library.
func SelectWithLibrary(f *ir.Func, lib *Library, opts Options) (*asm.Func, error) {
	if opts.Cost == nil {
		opts.Cost = AreaCost
	}
	g, err := dfg.Build(f)
	if err != nil {
		return nil, err
	}
	trees := g.Partition()
	out := &asm.Func{
		Name:    f.Name,
		Inputs:  append([]ir.Port(nil), f.Inputs...),
		Outputs: append([]ir.Port(nil), f.Outputs...),
	}
	// Emit trees in ascending root body order for readable, stable output.
	sort.Slice(trees, func(i, j int) bool { return trees[i].Root.Index < trees[j].Root.Index })
	for _, tree := range trees {
		sel := &treeSelector{lib: lib, tree: tree, opts: opts, choices: make(map[int]*choice)}
		instrs, err := sel.run()
		if err != nil {
			return nil, fmt.Errorf("isel: function %s: %w", f.Name, err)
		}
		out.Body = append(out.Body, instrs...)
	}
	if err := asm.CheckTarget(out, lib.Target); err != nil {
		return nil, fmt.Errorf("isel: produced invalid assembly: %w", err)
	}
	return out, nil
}

// choice is the selected cover for one in-tree node.
type choice struct {
	pat  *Pattern             // nil for the wire-instruction default cover
	bind map[string]*dfg.Node // pattern leaf name -> subject node
	caps map[int][]int64      // pattern body index -> captured register init
	cost int64
}

type treeSelector struct {
	lib     *Library
	tree    *dfg.Tree
	opts    Options
	choices map[int]*choice
}

const infCost = int64(math.MaxInt64 / 4)

// run computes covers bottom-up and emits assembly instructions for the
// tree root.
func (s *treeSelector) run() ([]asm.Instr, error) {
	if err := s.cover(s.tree.Root); err != nil {
		return nil, err
	}
	var instrs []asm.Instr
	emitted := make(map[int]bool)
	if err := s.emit(s.tree.Root, &instrs, emitted); err != nil {
		return nil, err
	}
	return instrs, nil
}

// cover computes the best cover for node n (which must be in the tree) and
// recursively for every node its cover exposes as a boundary.
func (s *treeSelector) cover(n *dfg.Node) error {
	if _, done := s.choices[n.ID]; done {
		return nil
	}
	// Mark in progress defensively; trees are acyclic so this never recurs.
	s.choices[n.ID] = &choice{cost: infCost}

	best := &choice{cost: infCost}

	// Default cover for wire nodes: emit the wire instruction itself,
	// at zero cost, paying only for in-tree children.
	if n.IsWire() {
		cost := int64(0)
		ok := true
		for _, a := range n.Args {
			c, err := s.childCost(a)
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
			best = &choice{cost: cost}
		}
	}

	if n.Kind == dfg.KindInstr && !n.IsWire() || n.IsWire() {
		for _, pat := range s.lib.Candidates(instrOp(n)) {
			ch, ok, err := s.match(pat, n)
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
	}

	if best.cost >= infCost && !n.IsWire() {
		res := n.Instr.Res
		return fmt.Errorf("no %s pattern covers %s (%s of type %s); "+
			"the target does not support this operation at this type",
			res, n.Name, n.Instr.Op, n.Type)
	}
	s.choices[n.ID] = best
	return nil
}

func instrOp(n *dfg.Node) ir.Op {
	if n.Kind == dfg.KindInstr {
		return n.Instr.Op
	}
	return ir.OpInvalid
}

// childCost returns the cost of producing a node consumed at a pattern
// boundary: zero if it lives outside the tree (an input or another tree's
// root), else the node's own best cover cost.
func (s *treeSelector) childCost(n *dfg.Node) (int64, error) {
	if !s.inTreeInterior(n) {
		return 0, nil
	}
	if err := s.cover(n); err != nil {
		return 0, err
	}
	return s.choices[n.ID].cost, nil
}

func (s *treeSelector) inTreeInterior(n *dfg.Node) bool {
	return n != s.tree.Root && s.tree.Contains(n)
}

// match attempts to place pattern pat with its root at subject node n.
func (s *treeSelector) match(pat *Pattern, n *dfg.Node) (*choice, bool, error) {
	// Most candidates fail at the root, on the tests matchNode opens with:
	// apply those before paying for a choice and its two maps.
	if p := pat.Root; p.Leaf == "" {
		if n.Kind != dfg.KindInstr {
			return nil, false, nil
		}
		if in := n.Instr; in.Op != p.Op || in.Type != p.Type ||
			in.Op.IsCompute() && in.Res != ir.ResAny && in.Res != pat.Def.Prim {
			return nil, false, nil
		}
	}
	ch := &choice{
		pat:  pat,
		bind: make(map[string]*dfg.Node),
		caps: make(map[int][]int64),
	}
	if !s.matchNode(pat.Root, n, n, ch) {
		return nil, false, nil
	}
	cost := s.opts.Cost(pat.Def)
	for _, leaf := range pat.Def.Inputs {
		b := ch.bind[leaf.Name]
		c, err := s.childCost(b)
		if err != nil {
			return nil, false, err
		}
		if c >= infCost {
			return nil, false, nil
		}
		cost += c
	}
	ch.cost = cost
	return ch, true, nil
}

// matchNode structurally matches pattern node p against subject node n.
// root is the subject node the pattern root is placed at; interior pattern
// nodes may only consume nodes interior to this tree (their values are
// fused away and must not be needed elsewhere).
func (s *treeSelector) matchNode(p *PNode, n *dfg.Node, root *dfg.Node, ch *choice) bool {
	if p.Leaf != "" {
		if n.Type != p.Type {
			return false
		}
		if prev, seen := ch.bind[p.Leaf]; seen {
			return prev == n // repeated input: must be the very same value
		}
		ch.bind[p.Leaf] = n
		return true
	}
	if n.Kind != dfg.KindInstr {
		return false
	}
	if n != root && !s.inTreeInterior(n) {
		return false // fusing would hide a value that others consume
	}
	in := n.Instr
	if in.Op != p.Op || in.Type != p.Type {
		return false
	}
	// Resource annotations are hard constraints on compute instructions.
	if in.Op.IsCompute() && in.Res != ir.ResAny && in.Res != ch.pat.Def.Prim {
		return false
	}
	if in.Op.IsStateful() {
		ch.caps[p.Body] = asm.NormalizeRegAttrs(*in)
	} else if !attrsEqual(in.Attrs, p.Attrs) {
		return false
	}
	if len(in.Args) != len(p.Args) {
		return false
	}
	for i, pa := range p.Args {
		if !s.matchNode(pa, n.Args[i], root, ch) {
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

// emit writes the chosen cover of node n (and, first, of every boundary
// node it consumes) as assembly instructions.
func (s *treeSelector) emit(n *dfg.Node, out *[]asm.Instr, emitted map[int]bool) error {
	if emitted[n.ID] {
		return nil
	}
	emitted[n.ID] = true
	ch := s.choices[n.ID]
	if ch == nil {
		return fmt.Errorf("internal: no cover recorded for %s", n.Name)
	}
	if ch.pat == nil {
		// Wire default cover.
		for _, a := range n.Args {
			if s.inTreeInterior(a) {
				if err := s.emit(a, out, emitted); err != nil {
					return err
				}
			}
		}
		*out = append(*out, asm.WireInstr(*n.Instr))
		return nil
	}
	args := make([]string, len(ch.pat.Def.Inputs))
	for i, leaf := range ch.pat.Def.Inputs {
		b := ch.bind[leaf.Name]
		if s.inTreeInterior(b) {
			if err := s.emit(b, out, emitted); err != nil {
				return err
			}
		}
		args[i] = b.Name
	}
	var attrs []int64
	for _, bi := range ch.pat.RegBodies {
		caps, ok := ch.caps[bi]
		if !ok {
			return fmt.Errorf("internal: pattern %s matched without capturing register %d",
				ch.pat.Def.Name, bi)
		}
		attrs = append(attrs, caps...)
	}
	*out = append(*out, asm.Instr{
		Dest:  n.Name,
		Type:  n.Type,
		Name:  ch.pat.Def.Name,
		Attrs: attrs,
		Args:  args,
		Loc:   asm.Unplaced(ch.pat.Def.Prim),
	})
	return nil
}

// Stats summarizes a selection result for reporting.
type Stats struct {
	AsmInstrs  int
	WireInstrs int
	LutInstrs  int
	DspInstrs  int
	TotalArea  int
}

// Summarize computes selection statistics for an assembly function.
func Summarize(f *asm.Func, target *tdl.Target) (Stats, error) {
	var st Stats
	for _, in := range f.Body {
		if in.IsWire() {
			st.WireInstrs++
			continue
		}
		st.AsmInstrs++
		def, ok := target.Lookup(in.Name)
		if !ok {
			return st, fmt.Errorf("isel: unknown operation %q in summary", in.Name)
		}
		st.TotalArea += def.Area
		switch def.Prim {
		case ir.ResLut:
			st.LutInstrs++
		case ir.ResDsp:
			st.DspInstrs++
		}
	}
	return st, nil
}
