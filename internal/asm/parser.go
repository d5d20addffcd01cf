package asm

import (
	"fmt"

	"reticle/internal/ir"
	"reticle/internal/tdl"
)

// Parse parses a single assembly function from source text and checks
// its names (see Resolve).
func Parse(src string) (*Func, error) {
	f, err := parseOne(src)
	if err != nil {
		return nil, err
	}
	if _, err := check(f); err != nil {
		return nil, err
	}
	return f, nil
}

// ParseResolved is Parse and Resolve in one pass over the names: it
// parses exactly one function and checks it against the target, handing
// back the symbol table that check built.
func ParseResolved(src string, target *tdl.Target) (*Func, ir.Symbols, error) {
	f, err := parseOne(src)
	if err != nil {
		return nil, ir.Symbols{}, err
	}
	syms, err := Resolve(f, target)
	if err != nil {
		return nil, ir.Symbols{}, err
	}
	return f, syms, nil
}

// parseOne parses a source that holds exactly one function, unchecked.
func parseOne(src string) (*Func, error) {
	p := ir.NewParser(src)
	f, err := parseFunc(p)
	if err := p.Settle("asm", err); err != nil {
		return nil, err
	}
	if !p.AtEOF() {
		return nil, fmt.Errorf("asm: expected exactly one function")
	}
	return f, nil
}

func parseFunc(p *ir.Parser) (*Func, error) {
	name, inputs, outputs, err := p.ParseHeader()
	if err != nil {
		return nil, err
	}
	n, err := p.OpenBody()
	if err != nil {
		return nil, err
	}
	f := &Func{Name: name, Inputs: inputs, Outputs: outputs, Body: make([]Instr, 0, n)}
	for !p.EatPunct("}") {
		in, err := parseInstr(p)
		if err != nil {
			return nil, err
		}
		f.Body = append(f.Body, in)
	}
	return f, nil
}

// parseInstr parses one assembly instruction: a statement, then either a
// location, "@prim(x, y)", or nothing for a wire operation; then ";".
func parseInstr(p *ir.Parser) (Instr, error) {
	dest, typ, name, err := p.ParseHead()
	if err != nil {
		return Instr{}, err
	}
	in := Instr{Dest: dest, Type: typ}
	if in.Attrs, in.Args, err = p.ParseCall(); err != nil {
		return in, err
	}
	if p.EatPunct("@") {
		in.Name = name
		if in.Loc, err = parseLoc(p); err != nil {
			return in, err
		}
	} else if in.Op, err = ir.ParseOp(name); err != nil || !in.Op.IsWire() {
		return in, fmt.Errorf("instruction %s: %q is not a wire operation and has no location", dest, name)
	}
	return in, p.ExpectPunct(";")
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

// check numbers the values as ir.Check does: unique destinations,
// resolved argument names, and typed outputs. It hands back the symbol
// table it resolved so that Resolve does not resolve the names a second
// time; operation signatures against a target are Resolve's to check.
func check(f *Func) (ir.Symbols, error) {
	n, err := ir.Number("asm", f.Name, f.Inputs, f.Outputs, make(map[string]int32, len(f.Inputs)+len(f.Body)))
	if err != nil {
		return ir.Symbols{}, err
	}
	for i := range f.Body {
		if err := n.Define("asm", f.Name, f.Body[i].Dest, len(f.Body[i].Args)); err != nil {
			return ir.Symbols{}, err
		}
	}
	refs := n.Refs(len(f.Outputs))
	for i := range f.Body {
		for _, a := range f.Body[i].Args {
			v, ok := n.Value(a)
			if !ok {
				return ir.Symbols{}, fmt.Errorf("asm: function %s: %s: argument %q is undefined",
					f.Name, f.Body[i].Dest, a)
			}
			refs = append(refs, v)
		}
	}
	return n.Close("asm", f.Name, f.Inputs, f.Outputs, f.ValueType, refs)
}
