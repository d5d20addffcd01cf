package ir

import (
	"fmt"
	"strings"
)

// CheckWellFormed verifies the well-formedness criterion of §6.1: the
// definition–use dependence graph must be acyclic once reg instructions are
// removed. Programs with combinational (register-free) cycles are rejected.
//
// On success it returns the indices of the pure (non-reg) instructions in a
// topological evaluation order, followed by no particular order for regs;
// the interpreter consumes this split.
func CheckWellFormed(f *Func) (pure, regs []int, err error) {
	// The criterion stands on its own: it reads an argument as the last
	// definition of its name, and a name nothing defines as a function input.
	defs := f.Defs()
	var args []int32
	for i := range f.Body {
		for _, a := range f.Body[i].Args {
			v := int32(-1)
			if j, ok := defs[a]; ok {
				v = int32(len(f.Inputs) + j)
			}
			args = append(args, v)
		}
	}
	order, err := topoOrder(f, args)
	if err != nil {
		return nil, nil, err
	}
	for _, i := range order {
		if f.Body[i].Op.IsStateful() {
			regs = append(regs, int(i))
		} else {
			pure = append(pure, int(i))
		}
	}
	return pure, regs, nil
}

// topoOrder runs Kahn's algorithm over the instructions of f, whose
// arguments are resolved in args as in Symbols.Args (anything below
// len(f.Inputs) is a function input). Edges out of reg instructions are cut:
// a reg's output is available from the previous cycle, so it cannot
// participate in a combinational cycle; regs still take part as sinks.
func topoOrder(f *Func, args []int32) ([]int32, error) {
	n, nin := len(f.Body), int32(len(f.Inputs))
	// One allocation: in-degrees, the order (which doubles as Kahn's queue),
	// and the consumers of each instruction j as the row
	// succ[start[j]:start[j+1]].
	buf := make([]int32, 3*n+2+len(args))
	indeg, order, start, succ := buf[:n], buf[n:n:2*n], buf[2*n:3*n+2], buf[3*n+2:]
	// edges calls visit(j, i) for every argument of i that a pure j defines.
	edges := func(visit func(j, i int32)) {
		k := 0
		for i := range f.Body {
			for range f.Body[i].Args {
				if j := args[k] - nin; j >= 0 && !f.Body[j].Op.IsStateful() {
					visit(j, int32(i))
				}
				k++
			}
		}
	}
	// Count row j at start[j+2]; the running sum then leaves the beginning
	// of row j at start[j+1], which the fill advances to the row's end —
	// the beginning of row j+1 — so that finally row j begins at start[j].
	edges(func(j, i int32) { start[j+2]++; indeg[i]++ })
	for j := 0; j < n; j++ {
		start[j+2] += start[j+1]
	}
	edges(func(j, i int32) { succ[start[j+1]] = i; start[j+1]++ })

	for i := range indeg {
		if indeg[i] == 0 {
			order = append(order, int32(i))
		}
	}
	for head := 0; head < len(order); head++ {
		j := order[head]
		for _, i := range succ[start[j]:start[j+1]] {
			if indeg[i]--; indeg[i] == 0 {
				order = append(order, i)
			}
		}
	}
	if len(order) != n {
		var stuck []string
		for i := range indeg {
			if indeg[i] > 0 {
				stuck = append(stuck, f.Body[i].Dest)
			}
		}
		return nil, fmt.Errorf(
			"ir: function %s is ill-formed: combinational cycle through {%s}",
			f.Name, strings.Join(stuck, ", "))
	}
	return order, nil
}
