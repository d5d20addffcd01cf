package asm

import (
	"fmt"
	"slices"

	"reticle/internal/ir"
)

// Parse parses a single assembly function from source text.
func Parse(src string) (*Func, error) {
	fns, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(fns) != 1 {
		return nil, fmt.Errorf("asm: expected exactly one function, found %d", len(fns))
	}
	return fns[0], nil
}

// ParseAll parses every assembly function in the source text.
func ParseAll(src string) ([]*Func, error) {
	p := ir.NewParser(src)
	var fns []*Func
	for !p.AtEOF() {
		f, err := parseFunc(p)
		if err := p.Settle("asm", err); err != nil {
			return nil, err
		}
		if err := Check(f); err != nil {
			return nil, err
		}
		fns = append(fns, f)
	}
	if len(fns) == 0 {
		return nil, fmt.Errorf("asm: no functions in input")
	}
	return fns, nil
}

func parseFunc(p *ir.Parser) (*Func, error) {
	if err := p.ExpectKeyword("def"); err != nil {
		return nil, err
	}
	name, err := p.ExpectIdent()
	if err != nil {
		return nil, err
	}
	inputs, err := p.ParsePorts()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct("->"); err != nil {
		return nil, err
	}
	outputs, err := p.ParsePorts()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct("{"); err != nil {
		return nil, err
	}
	f := &Func{Name: name, Inputs: inputs, Outputs: outputs}
	for !p.AtPunct("}") {
		in, err := parseInstr(p)
		if err != nil {
			return nil, err
		}
		f.Body = append(f.Body, in)
	}
	return f, p.ExpectPunct("}")
}

func parseInstr(p *ir.Parser) (Instr, error) {
	var in Instr
	dest, err := p.ExpectIdent()
	if err != nil {
		return in, err
	}
	if err := p.ExpectPunct(":"); err != nil {
		return in, err
	}
	typ, err := p.ParseTypeTok()
	if err != nil {
		return in, err
	}
	if err := p.ExpectPunct("="); err != nil {
		return in, err
	}
	opName, err := p.ExpectIdent()
	if err != nil {
		return in, err
	}
	attrs, err := p.ParseAttrs()
	if err != nil {
		return in, err
	}
	args, err := p.ParseArgs()
	if err != nil {
		return in, err
	}
	in = Instr{Dest: dest, Type: typ, Attrs: attrs, Args: args}

	if p.EatPunct("@") {
		loc, err := parseLoc(p)
		if err != nil {
			return in, err
		}
		in.Name = opName
		in.Loc = loc
	} else {
		op, err := ir.ParseOp(opName)
		if err != nil || !op.IsWire() {
			return in, fmt.Errorf("instruction %s: %q is not a wire operation and has no location",
				dest, opName)
		}
		in.Op = op
	}
	if err := p.ExpectPunct(";"); err != nil {
		return in, err
	}
	return in, nil
}

// parseLoc parses "prim(coord, coord)".
func parseLoc(p *ir.Parser) (Loc, error) {
	var loc Loc
	primName, err := p.ExpectIdent()
	if err != nil {
		return loc, err
	}
	prim, err := ir.ParseResource(primName)
	if err != nil || prim == ir.ResAny {
		return loc, fmt.Errorf("location primitive must be lut or dsp, got %q", primName)
	}
	loc.Prim = prim
	if err := p.ExpectPunct("("); err != nil {
		return loc, err
	}
	loc.X, err = parseCoord(p)
	if err != nil {
		return loc, err
	}
	if err := p.ExpectPunct(","); err != nil {
		return loc, err
	}
	loc.Y, err = parseCoord(p)
	if err != nil {
		return loc, err
	}
	return loc, p.ExpectPunct(")")
}

// parseCoord parses a coordinate expression: "??", or a sum of integer
// literals and at most one variable ("3", "x", "y+1", "y-1"). The lexer
// folds "-1" into a negative literal, so "y-1" arrives as ident then int.
func parseCoord(p *ir.Parser) (Coord, error) {
	if p.EatPunct("??") {
		return Wildcard(), nil
	}
	var c Coord
	terms := 0
	for {
		tok := p.Peek()
		switch tok.Kind {
		case ir.TokInt:
			c.Off += tok.Int
			p.Take()
		case ir.TokIdent:
			if c.Var != "" {
				return c, fmt.Errorf("line %d: coordinate uses two variables (%s, %s)",
					tok.Line, c.Var, tok.Text)
			}
			c.Var = tok.Text
			p.Take()
		default:
			return c, fmt.Errorf("line %d: expected coordinate term, found %s", tok.Line, tok)
		}
		terms++
		if p.EatPunct("+") {
			continue
		}
		// "y-1" tokenizes as ident "y" followed by int -1.
		if next := p.Peek(); next.Kind == ir.TokInt && next.Int < 0 {
			continue
		}
		break
	}
	if terms == 0 {
		return c, fmt.Errorf("empty coordinate expression")
	}
	return c, nil
}

// Check validates an assembly function's structure: unique destinations,
// resolved argument names, and typed outputs. Operation signatures against
// a target are validated separately by CheckTarget.
func Check(f *Func) error {
	_, err := new(Resolver).check(f)
	return err
}

// Resolver is Resolve with its name index and symbol table kept between
// calls, for a caller that resolves one function over and over (timing
// analysis under timing-driven refinement). The zero value is ready; the
// table a call returns is valid until the next call.
type Resolver struct {
	index map[string]int32
	refs  []int32
}

// check is Check numbering the values as ir.Check does, and handing back
// the symbol table it resolved so that CheckTarget does not resolve the
// names a second time.
func (r *Resolver) check(f *Func) (ir.Symbols, error) {
	if len(f.Outputs) == 0 {
		return ir.Symbols{}, fmt.Errorf("asm: function %s has no outputs", f.Name)
	}
	nin, nargs := len(f.Inputs), 0
	if r.index == nil {
		r.index = make(map[string]int32, nin+len(f.Body))
	}
	clear(r.index)
	index := r.index
	for i, p := range f.Inputs {
		if _, dup := index[p.Name]; dup {
			return ir.Symbols{}, fmt.Errorf("asm: function %s: duplicate input %q", f.Name, p.Name)
		}
		index[p.Name] = int32(i)
	}
	for i := range f.Body {
		in := &f.Body[i]
		if _, dup := index[in.Dest]; dup {
			return ir.Symbols{}, fmt.Errorf("asm: function %s: %q defined more than once", f.Name, in.Dest)
		}
		index[in.Dest] = int32(nin + i)
		nargs += len(in.Args)
	}
	refs := slices.Grow(r.refs[:0], nargs+len(f.Outputs))
	for i := range f.Body {
		for _, a := range f.Body[i].Args {
			v, ok := index[a]
			if !ok {
				return ir.Symbols{}, fmt.Errorf("asm: function %s: %s: argument %q is undefined",
					f.Name, f.Body[i].Dest, a)
			}
			refs = append(refs, v)
		}
	}
	refs, err := ir.CheckOutputs(f.Inputs, f.Outputs, index, f.ValueType, refs)
	r.refs = refs
	if err != nil {
		return ir.Symbols{}, fmt.Errorf("asm: function %s: %w", f.Name, err)
	}
	return ir.Symbols{Args: refs[:nargs:nargs], Outputs: refs[nargs:]}, nil
}
