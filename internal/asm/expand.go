package asm

import (
	"fmt"

	"reticle/internal/ir"
	"reticle/internal/tdl"
)

// CheckTarget validates every assembly instruction against the target:
// the operation must exist and its signature (input and output types, in
// order) must match the instruction's use. This is the "constraints are
// part of the language" property (§3): unsatisfiable programs are rejected,
// never silently adjusted.
func CheckTarget(f *Func, target *tdl.Target) error {
	_, err := Resolve(f, target)
	return err
}

// Resolve is CheckTarget handing back the symbol table it checked with:
// the value behind every argument and output port, numbered as ir.Symbols
// numbers an IR function's values. Stages after selection read names
// through it instead of indexing them again.
func Resolve(f *Func, target *tdl.Target) (ir.Symbols, error) {
	return new(Resolver).Resolve(f, target)
}

// Resolve is Resolve reusing r's tables.
func (r *Resolver) Resolve(f *Func, target *tdl.Target) (ir.Symbols, error) {
	syms, err := r.check(f)
	if err != nil {
		return ir.Symbols{}, err
	}
	args := syms.Args
	for _, in := range f.Body {
		argv := args[:len(in.Args)]
		args = args[len(in.Args):]
		if in.IsWire() {
			continue
		}
		def, ok := target.Lookup(in.Name)
		if !ok {
			return ir.Symbols{}, fmt.Errorf("asm: %s: operation %q is not defined by target %s",
				in.Dest, in.Name, target.Name)
		}
		if def.Prim != in.Loc.Prim {
			return ir.Symbols{}, fmt.Errorf("asm: %s: %s occupies %s, placed on %s",
				in.Dest, in.Name, def.Prim, in.Loc.Prim)
		}
		if len(in.Args) != len(def.Inputs) {
			return ir.Symbols{}, fmt.Errorf("asm: %s: %s takes %d arguments, got %d",
				in.Dest, in.Name, len(def.Inputs), len(in.Args))
		}
		for i, v := range argv {
			if t := f.ValueType(v); t != def.Inputs[i].Type {
				return ir.Symbols{}, fmt.Errorf("asm: %s: %s argument %d has type %s, want %s",
					in.Dest, in.Name, i, t, def.Inputs[i].Type)
			}
		}
		if in.Type != def.Output.Type {
			return ir.Symbols{}, fmt.Errorf("asm: %s: %s produces %s, destination declared %s",
				in.Dest, in.Name, def.Output.Type, in.Type)
		}
	}
	return syms, nil
}

// Expand lowers an assembly function back to the intermediate language by
// inlining each assembly instruction's TDL semantics with fresh temporary
// names. The result is the reference meaning of the assembly program; the
// compiler's translation-validation tests interpret it against the source
// IR program.
//
// Register initial values: an assembly instruction's attribute vector holds
// the per-lane initial values for each stateful body instruction, in body
// order (the instruction selector populates it this way). When the vector
// is empty the TDL body's own attributes are kept.
func Expand(f *Func, target *tdl.Target) (*ir.Func, error) {
	if err := CheckTarget(f, target); err != nil {
		return nil, err
	}
	out := &ir.Func{
		Name:    f.Name,
		Inputs:  append([]ir.Port(nil), f.Inputs...),
		Outputs: append([]ir.Port(nil), f.Outputs...),
	}
	for idx, in := range f.Body {
		if in.IsWire() {
			out.Body = append(out.Body, in.WireIR())
			continue
		}
		def, _ := target.Lookup(in.Name) // existence checked above
		body, err := inlineDef(def, in, idx)
		if err != nil {
			return nil, fmt.Errorf("asm: %s: %w", in.Dest, err)
		}
		out.Body = append(out.Body, body...)
	}
	if err := ir.Check(out); err != nil {
		return nil, fmt.Errorf("asm: expansion produced invalid IR: %w", err)
	}
	return out, nil
}

// inlineDef instantiates one TDL body for one assembly instruction.
func inlineDef(def *tdl.Def, in Instr, idx int) ([]ir.Instr, error) {
	// Build the substitution: definition inputs map to the instruction's
	// arguments; the definition output maps to the instruction's
	// destination; every other body temp gets a unique name.
	sub := make(map[string]string, len(def.Inputs)+len(def.Body))
	for i, p := range def.Inputs {
		sub[p.Name] = in.Args[i]
	}
	rename := func(name string) string {
		if name == def.Output.Name {
			return in.Dest
		}
		if s, ok := sub[name]; ok {
			return s
		}
		fresh := fmt.Sprintf("%s_x%d_%s", in.Dest, idx, name)
		sub[name] = fresh
		return fresh
	}

	attrs := in.Attrs
	var out []ir.Instr
	for _, bin := range def.Body {
		ni := bin.Clone()
		ni.Dest = rename(bin.Dest)
		for k, a := range bin.Args {
			ni.Args[k] = rename(a)
		}
		if ni.Op.IsStateful() && len(in.Attrs) > 0 {
			lanes := ni.Type.Lanes()
			if len(attrs) < lanes {
				return nil, fmt.Errorf("expand %s: %d register init values left, need %d",
					def.Name, len(attrs), lanes)
			}
			ni.Attrs = append([]int64(nil), attrs[:lanes]...)
			attrs = attrs[lanes:]
		}
		ni.Res = def.Prim
		out = append(out, ni)
	}
	if len(in.Attrs) > 0 && len(attrs) != 0 {
		return nil, fmt.Errorf("expand %s: %d unused register init values", def.Name, len(attrs))
	}
	return out, nil
}

// NormalizeRegAttrs returns a register instruction's initial value expanded
// to one attribute per lane, the canonical form used when capturing inits
// into assembly instructions.
func NormalizeRegAttrs(in ir.Instr) []int64 {
	lanes := in.Type.Lanes()
	out := make([]int64, lanes)
	switch len(in.Attrs) {
	case 1:
		for i := range out {
			out[i] = in.Attrs[0]
		}
	case lanes:
		copy(out, in.Attrs)
	default:
		panic(fmt.Sprintf("asm: register %s has %d init attributes for %s",
			in.Dest, len(in.Attrs), in.Type))
	}
	return out
}
