package ir

import (
	"fmt"
	"strconv"
)

// Resource is the optional binding annotation on compute instructions:
// the wildcard "??" (compiler's choice), LUTs, or DSPs (Fig. 5).
type Resource uint8

// The resource kinds of the language.
const (
	ResAny Resource = iota // the wildcard ??
	ResLut
	ResDsp
)

// String renders the resource in source syntax.
func (r Resource) String() string {
	switch r {
	case ResAny:
		return "??"
	case ResLut:
		return "lut"
	case ResDsp:
		return "dsp"
	default:
		return fmt.Sprintf("ir.Resource(%d)", uint8(r))
	}
}

// ParseResource parses "??", "lut", or "dsp".
func ParseResource(s string) (Resource, error) {
	switch s {
	case "??":
		return ResAny, nil
	case "lut":
		return ResLut, nil
	case "dsp":
		return ResDsp, nil
	}
	return ResAny, fmt.Errorf("ir: unknown resource %q", s)
}

// Port is a typed function input or output.
type Port struct {
	Name string
	Type Type
}

// String renders the port as "name:type".
func (p Port) String() string { return p.Name + ":" + p.Type.String() }

// AppendPorts appends a comma-separated port list in source syntax.
func AppendPorts(b []byte, ports []Port) []byte {
	for i, p := range ports {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = p.Type.AppendTo(append(append(b, p.Name...), ':'))
	}
	return b
}

// Instr is one A-normal-form instruction: dest:type = op[attrs](args) @res.
//
// Wire instructions ignore Res. The attribute slice is shared, not copied;
// callers that mutate Attrs after construction must clone first.
type Instr struct {
	Dest  string
	Type  Type
	Op    Op
	Attrs []int64
	Args  []string
	Res   Resource
}

// IsCompute reports whether the instruction consumes device resources.
func (in Instr) IsCompute() bool { return in.Op.IsCompute() }

// String renders the instruction in source syntax.
func (in Instr) String() string {
	var buf [96]byte
	return string(in.appendTo(buf[:0]))
}

// appendTo appends the instruction in source syntax.
func (in *Instr) appendTo(b []byte) []byte {
	b = append(append(b, in.Dest...), ':')
	b = append(in.Type.AppendTo(b), " = "...)
	b = append(b, in.Op.String()...)
	if len(in.Attrs) > 0 {
		b = append(b, '[')
		for i, a := range in.Attrs {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = strconv.AppendInt(b, a, 10)
		}
		b = append(b, ']')
	}
	if in.Op.Arity() != 0 {
		b = append(b, '(')
		for i, a := range in.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, a...)
		}
		b = append(b, ')')
	}
	if in.IsCompute() {
		b = append(append(b, " @"...), in.Res.String()...)
	}
	return append(b, ';')
}

// Clone returns a deep copy of the instruction.
func (in Instr) Clone() Instr {
	out := in
	out.Attrs = append([]int64(nil), in.Attrs...)
	out.Args = append([]string(nil), in.Args...)
	return out
}

// Func is a Reticle function: a name, typed inputs and outputs, and a flat
// body of instructions (Fig. 5a). Instruction order is not semantically
// meaningful for pure instructions — dependencies are by name — but it is
// preserved for printing.
type Func struct {
	Name    string
	Inputs  []Port
	Outputs []Port
	Body    []Instr
}

// Clone returns a deep copy of the function.
func (f *Func) Clone() *Func {
	out := &Func{
		Name:    f.Name,
		Inputs:  append([]Port(nil), f.Inputs...),
		Outputs: append([]Port(nil), f.Outputs...),
		Body:    make([]Instr, len(f.Body)),
	}
	for i, in := range f.Body {
		out.Body[i] = in.Clone()
	}
	return out
}

// String renders the function in source syntax.
func (f *Func) String() string {
	bp := scratch.Get().(*[]byte)
	b := append(append((*bp)[:0], "def "...), f.Name...)
	b = AppendPorts(append(b, '('), f.Inputs)
	b = AppendPorts(append(b, ") -> ("...), f.Outputs)
	b = append(b, ") {\n"...)
	for i := range f.Body {
		b = append(f.Body[i].appendTo(append(b, "    "...)), '\n')
	}
	b = append(b, "}\n"...)
	s := string(b)
	*bp = b
	scratch.Put(bp)
	return s
}

// Defs returns a map from destination name to the index of its defining
// instruction in Body.
func (f *Func) Defs() map[string]int {
	defs := make(map[string]int, len(f.Body))
	for i, in := range f.Body {
		defs[in.Dest] = i
	}
	return defs
}

// InputTypes returns a map from input name to type.
func (f *Func) InputTypes() map[string]Type {
	m := make(map[string]Type, len(f.Inputs))
	for _, p := range f.Inputs {
		m[p.Name] = p.Type
	}
	return m
}

// TypeOf resolves the type of a variable name: an input or a destination.
func (f *Func) TypeOf(name string) (Type, bool) {
	for _, p := range f.Inputs {
		if p.Name == name {
			return p.Type, true
		}
	}
	for _, in := range f.Body {
		if in.Dest == name {
			return in.Type, true
		}
	}
	return Type{}, false
}
