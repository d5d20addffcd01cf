// Package cascade implements Reticle's layout optimization (§5.2 of the
// paper): rewriting chains of accumulating DSP operations to cascade
// variants with relative placement constraints.
//
// A chain t1 = muladd(c, d, t0 = muladd(a, b, in)) is rewritten so the
// producer drives the DSP column's high-speed cascade output (the _co
// variant) and the consumer reads the cascade input (_ci), with shared
// coordinate variables pinning the two instructions to vertically adjacent
// slices of the same column (Fig. 11). Longer chains use the _coci variant
// in the middle. The constraints are solved later by instruction placement,
// keeping the optimization portable within the family.
package cascade

import (
	"fmt"

	"reticle/internal/asm"
	"reticle/internal/ir"
	"reticle/internal/target"
	"reticle/internal/tdl"
)

// Variants names the cascade forms of a base operation: the metadata the
// family packages publish (ultrascale.Cascades, agilex.Cascades) is the
// map this pass consumes.
type Variants = target.CascadeVariants

// Options configures the pass.
type Options struct {
	// Cascades maps base operation names to their variants.
	Cascades map[string]Variants
	// AccPort names the TDL input that accepts the cascaded partial sum
	// ("c" for the muladd family).
	AccPort string
	// MaxChain bounds rewritten chain length (a chain cannot exceed the
	// device column height or placement will fail). Zero means no bound.
	MaxChain int
}

// Stats reports what the pass did.
type Stats struct {
	Chains    int
	Rewritten int // instructions converted to cascade variants
}

// Apply rewrites cascade chains in place on a copy of f and returns it.
func Apply(f *asm.Func, target *tdl.Target, opts Options) (*asm.Func, Stats, error) {
	syms, err := asm.Resolve(f, target)
	if err != nil {
		return nil, Stats{}, err
	}
	out := f.Clone()
	st, err := ApplyWithSymbols(out, syms, target, opts)
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// ApplyWithSymbols is Apply rewriting out itself, a program already
// checked against target, syms being the symbol table that check built.
// The rewrite renames operations and constrains locations, nothing else,
// so syms stays out's table, and only the instructions it rewrote are
// checked again, against their new definitions. On an error out is left
// part-rewritten.
func ApplyWithSymbols(out *asm.Func, syms ir.Symbols, target *tdl.Target, opts Options) (Stats, error) {
	var st Stats
	if opts.AccPort == "" {
		opts.AccPort = "c"
	}
	nin := int32(len(out.Inputs))

	// accIdx resolves the accumulator argument index of an operation.
	accIdx := func(name string) int {
		def, ok := target.Lookup(name)
		if !ok {
			return -1
		}
		for i, p := range def.Inputs {
			if p.Name == opts.AccPort {
				return i
			}
		}
		return -1
	}

	// use[i] is the one use of body[i]'s value: the consumer's body index
	// and the argument position it reads the value at. A value with no use
	// has consumer unused, one with more than one shared; an output port
	// counts as a use, since outputs are externally visible and cannot be
	// cascaded away.
	type site struct{ consumer, pos int }
	const unused, shared = -1, -2
	use := make([]site, len(out.Body))
	for i := range use {
		use[i].consumer = unused
	}
	mark := func(v int32, s site) {
		if v < nin {
			return
		}
		if use[v-nin].consumer != unused {
			s.consumer = shared
		}
		use[v-nin] = s
	}
	args := syms.Args
	for i, in := range out.Body {
		for k, v := range args[:len(in.Args)] {
			mark(v, site{i, k})
		}
		args = args[len(in.Args):]
	}
	for _, v := range syms.Outputs {
		mark(v, site{shared, 0})
	}

	// cascadable reports whether body[i] can join a chain at all.
	cascadable := func(i int) bool {
		in := out.Body[i]
		if in.IsWire() {
			return false
		}
		if _, ok := opts.Cascades[in.Name]; !ok {
			return false
		}
		// Respect explicit user placement: only rewrite fully wildcarded
		// locations.
		return in.Loc.X.Wild && in.Loc.Y.Wild
	}

	// linksTo reports whether body[i]'s output feeds body[j]'s accumulator
	// port exclusively: its one use is that port.
	linksTo := func(i int) (int, bool) {
		u := use[i]
		if u.consumer < 0 || !cascadable(u.consumer) {
			return 0, false
		}
		return u.consumer, u.pos == accIdx(out.Body[u.consumer].Name)
	}

	inChain := make([]bool, len(out.Body))
	varNames := out.CoordVars()
	freshVar := func(prefix string, n int) string {
		for {
			name := fmt.Sprintf("%s%d", prefix, n)
			if !varNames[name] {
				varNames[name] = true
				return name
			}
			n++
		}
	}

	chainID := 0
	args = syms.Args
	for i := range out.Body {
		argv := args[:len(out.Body[i].Args)]
		args = args[len(out.Body[i].Args):]
		if !cascadable(i) || inChain[i] {
			continue
		}
		// Skip if i is itself fed by a cascadable predecessor through the
		// accumulator port; the chain will start there instead.
		if k := accIdx(out.Body[i].Name); k >= 0 && argv[k] >= nin {
			if pi := int(argv[k] - nin); cascadable(pi) && !inChain[pi] {
				if j, ok := linksTo(pi); ok && j == i {
					continue
				}
			}
		}
		// Grow the chain forward.
		chain := []int{i}
		cur := i
		for {
			if opts.MaxChain > 0 && len(chain) >= opts.MaxChain {
				break
			}
			j, ok := linksTo(cur)
			if !ok || inChain[j] {
				break
			}
			chain = append(chain, j)
			cur = j
		}
		if len(chain) < 2 {
			continue
		}
		// Rewrite: head -> _co, middles -> _coci, tail -> _ci, with shared
		// coordinates (x, y+k).
		xv := freshVar("cx", chainID)
		yv := freshVar("cy", chainID)
		chainID++
		for pos, bi := range chain {
			inChain[bi] = true
			v := opts.Cascades[out.Body[bi].Name]
			switch {
			case pos == 0:
				out.Body[bi].Name = v.Co
			case pos == len(chain)-1:
				out.Body[bi].Name = v.Ci
			default:
				out.Body[bi].Name = v.CoCi
			}
			out.Body[bi].Loc.X = asm.VarPlus(xv, 0)
			out.Body[bi].Loc.Y = asm.VarPlus(yv, int64(pos))
		}
		st.Chains++
		st.Rewritten += len(chain)
	}

	args = syms.Args
	for i := range out.Body {
		argv := args[:len(out.Body[i].Args)]
		args = args[len(out.Body[i].Args):]
		if !inChain[i] {
			continue
		}
		if err := asm.CheckDef(out, i, argv, target); err != nil {
			return st, fmt.Errorf("cascade: rewrite produced invalid assembly: %w", err)
		}
	}
	return st, nil
}
