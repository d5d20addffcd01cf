// Package tdl implements the Reticle target description language (Fig. 9 of
// the paper): a succinct specification of the assembly instructions an FPGA
// family supports. Each definition names an operation, the primitive it
// occupies (LUT or DSP), its area and latency costs, and its semantics as a
// DAG of intermediate-language instructions.
//
// The instruction selector consumes these definitions as tree patterns; the
// assembly expander consumes them as macro bodies.
package tdl

import (
	"fmt"
	"sort"
	"strings"

	"reticle/internal/ir"
)

// Def is one assembly-instruction definition:
//
//	name[prim, area, latency](inputs) -> (output) { body }
//
// The body is an IR fragment that defines the instruction's semantics; its
// single output is the definition's output port.
type Def struct {
	Name    string
	Prim    ir.Resource // ResLut or ResDsp
	Area    int
	Latency int
	Inputs  []ir.Port
	Output  ir.Port
	Body    []ir.Instr
}

// String renders the definition in TDL source syntax.
func (d *Def) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s, %d, %d](", d.Name, d.Prim, d.Area, d.Latency)
	for i, p := range d.Inputs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	fmt.Fprintf(&b, ") -> (%s) {\n", d.Output.String())
	for _, in := range d.Body {
		// TDL bodies carry no resource annotation; strip it when printing.
		in.Res = ir.ResAny
		s := strings.Replace(in.String(), " @??;", ";", 1)
		b.WriteString("    ")
		b.WriteString(s)
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.String()
}

// Stateful reports whether the definition's semantics contain a reg.
func (d *Def) Stateful() bool {
	for _, in := range d.Body {
		if in.Op.IsStateful() {
			return true
		}
	}
	return false
}

// Target is a named collection of assembly definitions: an FPGA family.
// Devices within the family share these instructions and differ only in
// how many primitives they provide (§4.2).
type Target struct {
	Name string
	defs map[string]*Def
}

// NewTarget builds a target from definitions, rejecting duplicates.
func NewTarget(name string, defs []*Def) (*Target, error) {
	t := &Target{Name: name, defs: make(map[string]*Def, len(defs))}
	for _, d := range defs {
		if _, dup := t.defs[d.Name]; dup {
			return nil, fmt.Errorf("tdl: target %s: duplicate definition %q", name, d.Name)
		}
		if err := checkDef(d); err != nil {
			return nil, fmt.Errorf("tdl: target %s: %w", name, err)
		}
		t.defs[d.Name] = d
	}
	return t, nil
}

// Lookup returns the definition with the given name.
func (t *Target) Lookup(name string) (*Def, bool) {
	d, ok := t.defs[name]
	return d, ok
}

// Defs returns all definitions sorted by name.
func (t *Target) Defs() []*Def {
	out := make([]*Def, 0, len(t.defs))
	for _, d := range t.defs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of definitions.
func (t *Target) Len() int { return len(t.defs) }

// checkDef validates a definition: the body must type-check against the
// inputs, define the output exactly once, and form a DAG (TDL bodies carry
// no cycles, §5.1).
func checkDef(d *Def) error {
	if d.Name == "" {
		return fmt.Errorf("definition has no name")
	}
	if d.Prim != ir.ResLut && d.Prim != ir.ResDsp {
		return fmt.Errorf("definition %s: primitive must be lut or dsp, got %s", d.Name, d.Prim)
	}
	if d.Area < 0 || d.Latency < 0 {
		return fmt.Errorf("definition %s: negative cost", d.Name)
	}
	if len(d.Body) == 0 {
		return fmt.Errorf("definition %s: empty body", d.Name)
	}
	// Reuse the IR checker by viewing the body as a function.
	f := &ir.Func{
		Name:    d.Name,
		Inputs:  d.Inputs,
		Outputs: []ir.Port{d.Output},
		Body:    d.Body,
	}
	if err := ir.Check(f); err != nil {
		return fmt.Errorf("definition %s: %w", d.Name, err)
	}
	// TDL bodies must be DAGs outright: even reg feedback is disallowed
	// inside a single assembly instruction's semantics.
	if err := checkDAG(f); err != nil {
		return fmt.Errorf("definition %s: %w", d.Name, err)
	}
	return nil
}

// checkDAG rejects any dependence cycle in the body, including through regs.
func checkDAG(f *ir.Func) error {
	defs := f.Defs()
	n := len(f.Body)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for i, in := range f.Body {
		for _, a := range in.Args {
			if j, ok := defs[a]; ok {
				adj[j] = append(adj[j], i)
				indeg[i]++
			}
		}
	}
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		done++
		for _, j := range adj[i] {
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if done != n {
		return fmt.Errorf("body contains a cycle")
	}
	return nil
}
