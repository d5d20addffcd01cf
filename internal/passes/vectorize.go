// Package passes implements the front-end compilation steps and
// optimizations of §8 of the paper as reusable IR-to-IR transformations:
//
//   - Vectorize (§8.2, Fig. 16): combine independent scalar instructions
//     into vector instructions, packing operands with wire concatenations
//     and unpacking results with lane slices;
//   - Pipeline (§8.1, Fig. 14): a scheduling helper that registers every
//     compute result, trading latency for clock rate;
//   - Bind (§8.2, Fig. 17): a resource-binding policy pass that rewrites
//     the @lut/@dsp annotations.
//
// The paper assigns these steps to front-end tools targeting Reticle; this
// package is that toolkit.
package passes

import (
	"fmt"

	"reticle/internal/ir"
)

// VectorizeOptions configures the vectorization pass.
type VectorizeOptions struct {
	// Lanes is the SIMD width to form (e.g. 4 for the DSP byte mode).
	Lanes int
}

// VectorizeStats reports what the pass did.
type VectorizeStats struct {
	Groups   int // vector instructions created
	Absorbed int // scalar instructions eliminated
}

// vecOps are the operations Vectorize combines.
var vecOps = map[ir.Op]bool{ir.OpAdd: true, ir.OpSub: true, ir.OpAnd: true, ir.OpOr: true, ir.OpXor: true, ir.OpReg: true}

// Vectorize combines groups of `Lanes` mutually independent scalar
// instructions with the same operation, type, and resource annotation into
// one vector instruction (Fig. 16a -> 16b). Operands are packed with cat
// wire instructions and results recovered with lane slices, so the
// transformation is semantics-preserving and free of compute cost; the
// win comes later when instruction selection maps the vector operation to
// a single SIMD DSP configuration.
func Vectorize(f *ir.Func, opts VectorizeOptions) (*ir.Func, VectorizeStats, error) {
	var st VectorizeStats
	if opts.Lanes < 2 {
		return nil, st, fmt.Errorf("passes: vectorize lanes = %d", opts.Lanes)
	}
	if err := ir.Check(f); err != nil {
		return nil, st, err
	}
	if _, _, err := ir.CheckWellFormed(f); err != nil {
		return nil, st, err
	}

	g := newDepGraph(f)

	// Greedy grouping in body order: a group holds instructions with the
	// same (op, type, res, enable-for-regs) signature, pairwise
	// combinationally independent.
	type sig struct {
		op  ir.Op
		typ ir.Type
		res ir.Resource
		en  string // reg enable operand; empty otherwise
	}
	var groups [][]int
	pending := map[sig][]int{}
	flush := func(k sig) {
		if len(pending[k]) >= opts.Lanes {
			idxs := pending[k][:opts.Lanes]
			groups = append(groups, idxs)
			pending[k] = append([]int(nil), pending[k][opts.Lanes:]...)
		}
	}
	for i, in := range f.Body {
		if !in.IsCompute() || !vecOps[in.Op] || !in.Type.IsInt() {
			continue
		}
		k := sig{op: in.Op, typ: in.Type, res: in.Res}
		if in.Op == ir.OpReg {
			k.en = in.Args[1]
		}
		// Keep the group independent: drop candidates this instruction
		// depends on from consideration as co-members.
		ok := true
		for _, j := range pending[k] {
			if g.dependsOn(i, j) || g.dependsOn(j, i) {
				ok = false
				break
			}
		}
		if !ok {
			// Start fresh from this instruction.
			pending[k] = pending[k][:0]
		}
		pending[k] = append(pending[k], i)
		flush(k)
	}

	if len(groups) == 0 {
		return f.Clone(), st, nil
	}

	// Rewrite. Grouped instructions are replaced at the position of their
	// last member by: operand packs, the vector op, and per-lane slices
	// re-defining the original destinations.
	grouped := map[int]int{} // body index -> group id
	lastOf := make([]int, len(groups))
	for gi, idxs := range groups {
		for _, i := range idxs {
			grouped[i] = gi
			if i > lastOf[gi] {
				lastOf[gi] = i
			}
		}
	}
	out := &ir.Func{
		Name:    f.Name,
		Inputs:  append([]ir.Port(nil), f.Inputs...),
		Outputs: append([]ir.Port(nil), f.Outputs...),
	}
	fresh := 0
	tmp := func(prefix string) string {
		fresh++
		return fmt.Sprintf("_v%d_%s", fresh, prefix)
	}
	for i, in := range f.Body {
		gi, isGrouped := grouped[i]
		if !isGrouped {
			out.Body = append(out.Body, in.Clone())
			continue
		}
		if i != lastOf[gi] {
			continue // emitted at the last member's position
		}
		idxs := groups[gi]
		members := make([]ir.Instr, len(idxs))
		for k, j := range idxs {
			members[k] = f.Body[j]
		}
		emitGroup(out, members, tmp, &st)
	}
	if err := ir.Check(out); err != nil {
		return nil, st, fmt.Errorf("passes: vectorize produced invalid IR: %w", err)
	}
	if _, _, err := ir.CheckWellFormed(out); err != nil {
		return nil, st, fmt.Errorf("passes: vectorize produced ill-formed IR: %w", err)
	}
	return out, st, nil
}

// emitGroup writes the packed vector form of a member group.
func emitGroup(out *ir.Func, members []ir.Instr, tmp func(string) string, st *VectorizeStats) {
	lanes := len(members)
	scalar := members[0].Type
	vt := ir.Vector(scalar.Width(), lanes)

	// pack builds a cat chain over the k-th operand of every member.
	pack := func(argIdx int) string {
		cur := members[0].Args[argIdx]
		curT := scalar
		for l := 1; l < lanes; l++ {
			nt := ir.Vector(scalar.Width(), l+1)
			dest := tmp("pack")
			out.Body = append(out.Body, ir.Instr{
				Dest: dest, Type: nt, Op: ir.OpCat,
				Args: []string{cur, members[l].Args[argIdx]},
			})
			cur, curT = dest, nt
		}
		_ = curT
		return cur
	}

	vec := ir.Instr{Dest: tmp("op"), Type: vt, Op: members[0].Op, Res: members[0].Res}
	if members[0].Op == ir.OpReg {
		va := pack(0)
		var inits []int64
		for _, m := range members {
			inits = append(inits, m.Attrs[0])
		}
		vec.Attrs = inits
		vec.Args = []string{va, members[0].Args[1]}
	} else {
		va := pack(0)
		vb := pack(1)
		vec.Args = []string{va, vb}
	}
	out.Body = append(out.Body, vec)
	for l, m := range members {
		out.Body = append(out.Body, ir.Instr{
			Dest: m.Dest, Type: scalar, Op: ir.OpSlice,
			Attrs: []int64{int64(l)}, Args: []string{vec.Dest},
		})
	}
	st.Groups++
	st.Absorbed += lanes
}

// depGraph answers combinational reachability queries: does instruction i
// transitively depend on instruction j's output without crossing a
// register boundary?
type depGraph struct {
	f     *ir.Func
	defs  map[string]int
	reach []map[int]bool // lazily computed ancestor sets
}

func newDepGraph(f *ir.Func) *depGraph {
	return &depGraph{f: f, defs: f.Defs(), reach: make([]map[int]bool, len(f.Body))}
}

// ancestors returns the combinational ancestor set of instruction i.
func (g *depGraph) ancestors(i int) map[int]bool {
	if g.reach[i] != nil {
		return g.reach[i]
	}
	set := map[int]bool{}
	g.reach[i] = set // mark before recursing; cycles only cross regs
	for _, a := range g.f.Body[i].Args {
		j, ok := g.defs[a]
		if !ok {
			continue
		}
		set[j] = true
		if g.f.Body[j].Op.IsStateful() {
			continue // register boundary: sequential, not combinational
		}
		for k := range g.ancestors(j) {
			set[k] = true
		}
	}
	return set
}

func (g *depGraph) dependsOn(i, j int) bool {
	return g.ancestors(i)[j]
}
