// Package target hosts the bundled FPGA family descriptions (§4.2 of the
// paper). A family is a target description (Fig. 9): one TDL definition
// per (operation, type, primitive) combination the family's slices
// implement, each priced with an area and a latency cost and carrying an
// IR body that gives the instruction its semantics. Families also ship
// the cascade metadata consumed by the §5.2 layout optimizer and a
// concrete device geometry.
//
// The sibling packages ultrascale and agilex are the two bundled
// families. Both generate their TDL source with the Builder here, so a
// new family is a spec table — a handful of Builder calls per width —
// rather than hand-written TDL text. See DESIGN.md ("Target packages")
// for the recipe.
package target

import (
	"fmt"
	"strings"
	"sync"

	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/tdl"
)

// CascadeVariants names the cascade rewrites of a base accumulator
// opcode: Co drives the dedicated column route, Ci consumes it, and CoCi
// does both (chain middles). cascade.Variants and the family packages'
// CascadeVariants are aliases of this one declaration.
type CascadeVariants struct {
	Co   string
	Ci   string
	CoCi string
}

// Builder accumulates TDL definition source text plus the cascade
// metadata that goes with it. The emitted source is ordinary Fig. 9 TDL:
// it round-trips through tdl.Parse and is what the family packages expose
// for fuzzing and documentation.
type Builder struct {
	src      strings.Builder
	cascades map[string]CascadeVariants
}

// NewBuilder starts an empty description for the named family.
func NewBuilder(family string) *Builder {
	b := &Builder{cascades: make(map[string]CascadeVariants)}
	fmt.Fprintf(&b.src, "// Target description for the %s family (Fig. 9).\n", family)
	return b
}

// Comment appends a section comment to the generated source.
func (b *Builder) Comment(text string) {
	fmt.Fprintf(&b.src, "\n// %s\n", text)
}

// Def appends one raw definition. Bodies must be trees — every
// intermediate used exactly once — so the selector can compile them into
// patterns; tdl.Parse and isel.NewLibrary enforce this.
func (b *Builder) Def(name string, prim ir.Resource, area, latency int, ins, out string, body ...string) {
	fmt.Fprintf(&b.src, "%s[%s, %d, %d](%s) -> (%s) {\n", name, prim, area, latency, ins, out)
	for _, line := range body {
		fmt.Fprintf(&b.src, "    %s\n", line)
	}
	b.src.WriteString("}\n")
}

// Binary emits y = op(a, b) over one type.
func (b *Builder) Binary(name string, prim ir.Resource, area, latency int, op, typ string) {
	b.Def(name, prim, area, latency,
		fmt.Sprintf("a:%s, b:%s", typ, typ), "y:"+typ,
		fmt.Sprintf("y:%s = %s(a, b);", typ, op))
}

// Unary emits y = op(a) over one type.
func (b *Builder) Unary(name string, prim ir.Resource, area, latency int, op, typ string) {
	b.Def(name, prim, area, latency,
		"a:"+typ, "y:"+typ,
		fmt.Sprintf("y:%s = %s(a);", typ, op))
}

// Compare emits a comparator y:bool = op(a, b) over one scalar type.
func (b *Builder) Compare(name string, prim ir.Resource, area, latency int, op, typ string) {
	b.Def(name, prim, area, latency,
		fmt.Sprintf("a:%s, b:%s", typ, typ), "y:bool",
		fmt.Sprintf("y:bool = %s(a, b);", op))
}

// Mux emits y = mux(c, a, b) over one type.
func (b *Builder) Mux(name string, prim ir.Resource, area, latency int, typ string) {
	b.Def(name, prim, area, latency,
		fmt.Sprintf("c:bool, a:%s, b:%s", typ, typ), "y:"+typ,
		fmt.Sprintf("y:%s = mux(c, a, b);", typ))
}

// Reg emits an enabled register y = reg[0](a, en). The initial value in
// the pattern is a placeholder: selection captures the subject program's
// initial value into the emitted instruction's attributes.
func (b *Builder) Reg(name string, prim ir.Resource, area, latency int, typ string) {
	b.Def(name, prim, area, latency,
		fmt.Sprintf("a:%s, en:bool", typ), "y:"+typ,
		fmt.Sprintf("y:%s = reg[0](a, en);", typ))
}

// BinaryRega emits the registered fusion t0 = op(a, b); y = reg(t0, en),
// the add_reg-style stateful pattern of Fig. 9.
func (b *Builder) BinaryRega(name string, prim ir.Resource, area, latency int, op, typ string) {
	b.Def(name, prim, area, latency,
		fmt.Sprintf("a:%s, b:%s, en:bool", typ, typ), "y:"+typ,
		fmt.Sprintf("t0:%s = %s(a, b);", typ, op),
		fmt.Sprintf("y:%s = reg[0](t0, en);", typ))
}

// MulAdd emits the fused multiply-add y = a*b + c, with c as the
// accumulator port the cascade pass chains through. When cascaded is
// true, the _co/_ci/_coci variants are emitted with identical costs and
// bodies — the variants differ only in physical routing, so expansion
// back to IR (the reference semantics) is unchanged — and the cascade
// metadata is recorded.
func (b *Builder) MulAdd(name string, prim ir.Resource, area, latency int, typ string, cascaded bool) {
	emit := func(n string) {
		b.Def(n, prim, area, latency,
			fmt.Sprintf("a:%s, b:%s, c:%s", typ, typ, typ), "y:"+typ,
			fmt.Sprintf("t0:%s = mul(a, b);", typ),
			fmt.Sprintf("y:%s = add(t0, c);", typ))
	}
	emit(name)
	if cascaded {
		for _, suffix := range []string{"_co", "_ci", "_coci"} {
			emit(name + suffix)
		}
		b.cascades[name] = CascadeVariants{Co: name + "_co", Ci: name + "_ci", CoCi: name + "_coci"}
	}
}

// MulAddRega emits the registered multiply-accumulate — the systolic
// tensordot stage — with the same cascade treatment as MulAdd.
func (b *Builder) MulAddRega(name string, prim ir.Resource, area, latency int, typ string, cascaded bool) {
	emit := func(n string) {
		b.Def(n, prim, area, latency,
			fmt.Sprintf("a:%s, b:%s, c:%s, en:bool", typ, typ, typ), "y:"+typ,
			fmt.Sprintf("t0:%s = mul(a, b);", typ),
			fmt.Sprintf("t1:%s = add(t0, c);", typ),
			fmt.Sprintf("y:%s = reg[0](t1, en);", typ))
	}
	emit(name)
	if cascaded {
		for _, suffix := range []string{"_co", "_ci", "_coci"} {
			emit(name + suffix)
		}
		b.cascades[name] = CascadeVariants{Co: name + "_co", Ci: name + "_ci", CoCi: name + "_coci"}
	}
}

// Source returns the accumulated TDL text.
func (b *Builder) Source() string { return b.src.String() }

// Cascades returns a copy of the recorded cascade metadata.
func (b *Builder) Cascades() map[string]CascadeVariants {
	out := make(map[string]CascadeVariants, len(b.cascades))
	for k, v := range b.cascades {
		out[k] = v
	}
	return out
}

// Build parses the accumulated source into a target description.
func (b *Builder) Build(family string) (*tdl.Target, error) {
	return tdl.Parse(family, b.Source())
}

// Family is a bundled family, loaded: its target description, its device
// and the Builder they came from.
type Family struct {
	Target *tdl.Target
	Device *device.Device
	b      *Builder
}

// Source returns the generated TDL text the target was parsed from.
func (f *Family) Source() string { return f.b.Source() }

// Cascades returns a copy of the family's cascade metadata.
func (f *Family) Cascades() map[string]CascadeVariants { return f.b.Cascades() }

// Bundled returns the loader of a bundled family: the first call runs
// build and dev, and every call returns that one Family, so its Target
// pointer is a singleton callers may compare by identity. An invalid
// bundled description panics.
func Bundled(family string, build func() *Builder, dev func() (*device.Device, error)) func() *Family {
	return sync.OnceValue(func() *Family {
		b := build()
		t, err := b.Build(family)
		if err != nil {
			panic(family + ": bundled target is invalid: " + err.Error())
		}
		d, err := dev()
		if err != nil {
			panic(family + ": bundled device is invalid: " + err.Error())
		}
		return &Family{Target: t, Device: d, b: b}
	})
}
