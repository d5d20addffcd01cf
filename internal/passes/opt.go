package passes

import (
	"fmt"
	"strings"

	"reticle/internal/ir"
)

// DCE removes instructions whose results can never reach an output —
// classic dead code elimination over the definition–use graph, treating
// register feedback as live paths. It returns the cleaned function and the
// number of instructions removed.
func DCE(f *ir.Func) (*ir.Func, int, error) {
	if err := ir.Check(f); err != nil {
		return nil, 0, err
	}
	defs := f.Defs()
	live := make(map[int]bool)
	var mark func(name string)
	mark = func(name string) {
		i, ok := defs[name]
		if !ok || live[i] {
			return
		}
		live[i] = true
		for _, a := range f.Body[i].Args {
			mark(a)
		}
	}
	for _, p := range f.Outputs {
		mark(p.Name)
	}
	out := &ir.Func{
		Name:    f.Name,
		Inputs:  append([]ir.Port(nil), f.Inputs...),
		Outputs: append([]ir.Port(nil), f.Outputs...),
	}
	removed := 0
	for i, in := range f.Body {
		if live[i] {
			out.Body = append(out.Body, in.Clone())
		} else {
			removed++
		}
	}
	if err := ir.Check(out); err != nil {
		return nil, 0, fmt.Errorf("passes: dce produced invalid IR: %w", err)
	}
	return out, removed, nil
}

// CSE merges pure instructions that compute identical values: same
// operation, attributes, and (canonicalized) arguments. Registers and
// their transitive uses are never merged across distinct registers —
// state is identity. For commutative operations the argument order is
// canonicalized first, so add(a, b) and add(b, a) unify. Returns the
// rewritten function and the number of instructions eliminated.
func CSE(f *ir.Func) (*ir.Func, int, error) {
	if err := ir.Check(f); err != nil {
		return nil, 0, err
	}
	if _, _, err := ir.CheckWellFormed(f); err != nil {
		return nil, 0, err
	}
	// Process in dependency order so replacements propagate forward.
	pure, regs, err := ir.CheckWellFormed(f)
	if err != nil {
		return nil, 0, err
	}
	order := append(append([]int(nil), pure...), regs...)

	replace := map[string]string{} // old dest -> canonical dest
	canon := func(name string) string {
		if r, ok := replace[name]; ok {
			return r
		}
		return name
	}
	table := map[string]string{} // value key -> canonical dest
	removedSet := map[int]bool{}

	for _, i := range order {
		in := f.Body[i]
		if in.Op.IsStateful() {
			continue // registers keep their identity
		}
		args := make([]string, len(in.Args))
		for k, a := range in.Args {
			args[k] = canon(a)
		}
		if isCommutative(in.Op) && len(args) == 2 && args[1] < args[0] {
			args[0], args[1] = args[1], args[0]
		}
		key := valueKey(in, args)
		if prev, ok := table[key]; ok {
			replace[in.Dest] = prev
			removedSet[i] = true
			continue
		}
		table[key] = in.Dest
	}

	// Keep instructions whose dest is a function output even if redundant:
	// rewrite them to id of the canonical value instead of removing.
	outNames := map[string]bool{}
	for _, p := range f.Outputs {
		outNames[p.Name] = true
	}

	out := &ir.Func{
		Name:    f.Name,
		Inputs:  append([]ir.Port(nil), f.Inputs...),
		Outputs: append([]ir.Port(nil), f.Outputs...),
	}
	removed := 0
	for i, in := range f.Body {
		if removedSet[i] {
			if outNames[in.Dest] {
				out.Body = append(out.Body, ir.Instr{
					Dest: in.Dest, Type: in.Type, Op: ir.OpId,
					Args: []string{canon(in.Dest)},
				})
			} else {
				removed++
			}
			continue
		}
		ni := in.Clone()
		for k, a := range ni.Args {
			ni.Args[k] = canon(a)
		}
		out.Body = append(out.Body, ni)
	}
	if err := ir.Check(out); err != nil {
		return nil, 0, fmt.Errorf("passes: cse produced invalid IR: %w", err)
	}
	if _, _, err := ir.CheckWellFormed(out); err != nil {
		return nil, 0, fmt.Errorf("passes: cse produced ill-formed IR: %w", err)
	}
	return out, removed, nil
}

func isCommutative(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpEq, ir.OpNeq:
		return true
	}
	return false
}

// valueKey builds a structural identity for a pure instruction.
func valueKey(in ir.Instr, args []string) string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	b.WriteByte('|')
	b.WriteString(in.Type.String())
	b.WriteByte('|')
	b.WriteString(in.Res.String())
	for _, a := range in.Attrs {
		fmt.Fprintf(&b, "|#%d", a)
	}
	for _, a := range args {
		b.WriteByte('|')
		b.WriteString(a)
	}
	return b.String()
}

// Optimize runs constant folding, CSE, and DCE to a fixpoint (bounded) —
// the standard cleanup pipeline a front end would run before handing a
// program to the Reticle compiler.
func Optimize(f *ir.Func) (*ir.Func, error) {
	cur := f
	for iter := 0; iter < 8; iter++ {
		next, nFold, err := Fold(cur)
		if err != nil {
			return nil, err
		}
		next, nCSE, err := CSE(next)
		if err != nil {
			return nil, err
		}
		next, nDCE, err := DCE(next)
		if err != nil {
			return nil, err
		}
		cur = next
		if nFold+nCSE+nDCE == 0 {
			break
		}
	}
	return cur, nil
}
