// Package isel implements Reticle's instruction selection (§5.1 of the
// paper): lowering intermediate programs to assembly programs with a
// linear-time, dynamic-programming tree-covering algorithm in the style of
// Aho–Ganapathi, applied to the hardware domain.
//
// Target definitions become tree patterns; the selector partitions the
// program's dataflow graph into trees (package dfg), computes an optimal
// cover for each tree bottom-up, and emits one assembly instruction per
// chosen pattern. Resource annotations (@lut/@dsp) are hard constraints:
// an instruction that cannot be covered on its requested resource is a
// compile-time error, never a silent fallback.
package isel

import (
	"fmt"

	"reticle/internal/ir"
	"reticle/internal/tdl"
)

// PNode is one node of a compiled tree pattern. A leaf references a
// definition input by name; an interior node requires a matching
// instruction.
type PNode struct {
	Leaf  string // input name; empty for interior nodes
	Op    ir.Op
	Type  ir.Type
	Attrs []int64
	Args  []*PNode

	input int // leaf: ordinal of the input in Def.Inputs
	reg   int // stateful interior node: its slot in Pattern.RegBodies
}

// Pattern is a target definition compiled to a matchable tree.
type Pattern struct {
	Def  *tdl.Def
	Root *PNode
	// Stateful body indices in body order; their captured register inits
	// form the emitted instruction's attribute vector.
	RegBodies []int
}

// CompilePattern converts a TDL definition into a tree pattern. The body
// must form a tree: every intermediate value is consumed exactly once.
// (Definition inputs may be referenced multiple times; matching then
// requires the bound subject nodes to coincide.) Leaf names and stateful
// body indices are resolved to ordinals here, once, so matching binds by
// slice and never by name.
func CompilePattern(def *tdl.Def) (*Pattern, error) {
	p := &Pattern{Def: def}
	byDest := make(map[string]int, len(def.Body))
	uses := make(map[string]int)
	regSlot := make([]int, len(def.Body)) // body index -> slot in RegBodies
	for i, in := range def.Body {
		byDest[in.Dest] = i
		for _, a := range in.Args {
			uses[a]++
		}
		if in.Op.IsStateful() {
			regSlot[i] = len(p.RegBodies)
			p.RegBodies = append(p.RegBodies, i)
		}
	}
	inputOrd := make(map[string]int, len(def.Inputs))
	for i, in := range def.Inputs {
		if uses[in.Name] == 0 {
			return nil, fmt.Errorf("isel: definition %s: input %q is never used", def.Name, in.Name)
		}
		inputOrd[in.Name] = i
	}
	for _, in := range def.Body {
		if in.Dest != def.Output.Name && uses[in.Dest] != 1 {
			return nil, fmt.Errorf(
				"isel: definition %s: intermediate %q used %d times; selection patterns must be trees",
				def.Name, in.Dest, uses[in.Dest])
		}
	}
	if uses[def.Output.Name] != 0 {
		return nil, fmt.Errorf(
			"isel: definition %s: output %q is also consumed internally", def.Name, def.Output.Name)
	}

	var build func(name string) (*PNode, error)
	build = func(name string) (*PNode, error) {
		if i, ok := byDest[name]; ok {
			in := def.Body[i]
			n := &PNode{
				Op:    in.Op,
				Type:  in.Type,
				Attrs: append([]int64(nil), in.Attrs...),
				reg:   regSlot[i],
			}
			for _, a := range in.Args {
				c, err := build(a)
				if err != nil {
					return nil, err
				}
				n.Args = append(n.Args, c)
			}
			return n, nil
		}
		ord, ok := inputOrd[name]
		if !ok {
			return nil, fmt.Errorf("isel: definition %s: %q is neither input nor intermediate",
				def.Name, name)
		}
		return &PNode{Leaf: name, Type: def.Inputs[ord].Type, input: ord}, nil
	}
	root, err := build(def.Output.Name)
	if err != nil {
		return nil, err
	}
	if root.Leaf != "" {
		return nil, fmt.Errorf("isel: definition %s: output is a bare input", def.Name)
	}
	p.Root = root
	return p, nil
}

// Library is a set of compiled patterns indexed by root operation, ready
// for matching.
//
// A Library is immutable after NewLibrary returns: Candidates hands out
// shared slices that no isel code path writes to, so one library may
// serve any number of concurrent SelectWithLibrary calls (the
// compile-at-scale batch path does exactly that; race_test.go locks the
// guarantee in under -race).
type Library struct {
	Target *tdl.Target
	byOp   map[ir.Op][]*Pattern
	count  int
}

// NewLibrary compiles every definition of the target.
func NewLibrary(target *tdl.Target) (*Library, error) {
	lib := &Library{Target: target, byOp: make(map[ir.Op][]*Pattern)}
	for _, def := range target.Defs() {
		p, err := CompilePattern(def)
		if err != nil {
			return nil, err
		}
		lib.byOp[p.Root.Op] = append(lib.byOp[p.Root.Op], p)
		lib.count++
	}
	return lib, nil
}

// Candidates returns the patterns whose root operation is op.
func (lib *Library) Candidates(op ir.Op) []*Pattern { return lib.byOp[op] }

// Len returns the number of compiled patterns.
func (lib *Library) Len() int { return lib.count }
