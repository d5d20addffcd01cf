package ir

import "strconv"

// StructuralHash returns a hex-encoded SHA-256 over the *shape* of the
// function: everything that survives a small interactive edit is in the
// hash, everything such an edit touches is not. It is the key of the
// placement hint cache (internal/hintcache): two functions with equal
// structural hashes present the compiler with the same selection and
// placement problem modulo constant values, so anchors recorded for one
// are a warm start for the other.
//
// Compared to CanonicalHash, which is the artifact identity, the
// structural hash additionally ignores:
//
//   - the function name;
//   - ALL identifier spellings — ports are numbered positionally, not by
//     name, so renaming an input or output (which changes the Verilog
//     module interface and therefore the artifact) still hits the same
//     hint bucket;
//   - constant *values*: the lane values of `const` and the initial
//     values of `reg` are masked down to their lane count. The value of
//     a constant cannot move an instruction between primitives, but its
//     lane count is part of the type shape, so it stays.
//
// Everything placement can observe remains significant: port order and
// types, instruction order, opcodes, destination types, argument
// connectivity, compute resource annotations, and the structural
// attributes — shift amounts (they select wiring patterns) and slice
// ranges (they select bits). Any op swap, width change, or edge rewire
// therefore changes the hash, which FuzzStructuralHash locks in.
func StructuralHash(f *Func) string {
	bp := scratch.Get().(*[]byte)
	b := append((*bp)[:0], "sfunc\x00"...)

	// Every name is canonical-positional: ports in declaration order,
	// temporaries in definition order, free (undefined) names in first-use
	// order. One numbering holds all three, the class in the low two bits;
	// the "p:"/"t:"/"f:" tags keep the namespaces disjoint.
	const port, temp, free = 0, 1, 2
	num := make(map[string]int32, len(f.Inputs)+len(f.Outputs)+len(f.Body))
	var next [3]int32
	number := func(n string, class int32) int32 {
		k := next[class]<<2 | class
		next[class]++
		num[n] = k
		return k
	}
	render := func(b []byte, k int32) []byte {
		return strconv.AppendInt(append(b, "ptf"[k&3], ':'), int64(k>>2), 10)
	}
	for _, p := range f.Inputs {
		number(p.Name, port)
		b = append(p.Type.AppendTo(append(b, "in\x00"...)), 0)
	}
	for _, p := range f.Outputs {
		k, ok := num[p.Name]
		if !ok {
			k = number(p.Name, port)
		}
		b = append(render(append(b, "out\x00"...), k), 0)
		b = append(p.Type.AppendTo(b), 0)
	}
	for i := range f.Body {
		if _, ok := num[f.Body[i].Dest]; !ok {
			number(f.Body[i].Dest, temp)
		}
	}
	// Constant values are exactly what a small edit tweaks; only the lane
	// shape of a const's or reg's attribute list is structural.
	b = appendHashBody(b, f, true, func(b []byte, n string) []byte {
		k, ok := num[n]
		if !ok {
			k = number(n, free)
		}
		return render(b, k)
	})
	return hexSum(bp, b)
}
