package tdl

import (
	"fmt"

	"reticle/internal/ir"
)

// Parse parses a target description source into a Target. The grammar is
// Fig. 9 of the paper:
//
//	des  := asm+
//	asm  := name "[" prim "," area "," latency "]" ports "->" "(" port ")" "{" ins+ "}"
//	ins  := var ":" type "=" op attrs? args? ";"
//
// Comments run from "//" to end of line.
func Parse(name, src string) (*Target, error) {
	p := ir.NewParser(src)
	defs, err := ir.ParseEach(p, "tdl", "definitions", func() (*Def, error) { return parseDef(p) }, nil)
	if err != nil {
		return nil, err
	}
	return NewTarget(name, defs)
}

// parseDef parses one definition: its costed name, the signature with
// exactly one output, and a body of statements without annotations.
func parseDef(p *ir.Parser) (*Def, error) {
	name, err := p.ExpectIdent()
	if err != nil {
		return nil, err
	}
	d := &Def{Name: name}
	if err := p.ExpectPunct("["); err != nil {
		return nil, err
	}
	primName, err := p.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if d.Prim, err = ir.ParseResource(primName); err != nil {
		return nil, err
	}
	if err := p.ExpectPunct(","); err != nil {
		return nil, err
	}
	area, err := p.ExpectInt()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct(","); err != nil {
		return nil, err
	}
	latency, err := p.ExpectInt()
	if err != nil {
		return nil, err
	}
	d.Area, d.Latency = int(area), int(latency)
	if err := p.ExpectPunct("]"); err != nil {
		return nil, err
	}
	inputs, outs, err := p.ParseSignature()
	if err != nil {
		return nil, err
	}
	if len(outs) != 1 {
		return nil, fmt.Errorf("definition %s: exactly one output required, got %d", name, len(outs))
	}
	d.Inputs, d.Output = inputs, outs[0]
	n, err := p.OpenBody()
	if err != nil {
		return nil, err
	}
	d.Body = make([]ir.Instr, 0, n)
	for !p.EatPunct("}") {
		in, err := parseBodyInstr(p)
		if err != nil {
			return nil, fmt.Errorf("definition %s: %w", name, err)
		}
		d.Body = append(d.Body, in)
	}
	return d, nil
}

// parseBodyInstr parses one TDL body instruction: a statement and ";", an
// IR instruction without a resource annotation.
func parseBodyInstr(p *ir.Parser) (ir.Instr, error) {
	dest, typ, name, err := p.ParseHead()
	if err != nil {
		return ir.Instr{}, err
	}
	op, err := ir.ParseOp(name)
	if err != nil {
		return ir.Instr{}, err
	}
	in := ir.Instr{Dest: dest, Type: typ, Op: op, Res: ir.ResAny}
	if in.Attrs, in.Args, err = p.ParseCall(); err != nil {
		return in, err
	}
	if p.AtPunct("@") {
		return in, fmt.Errorf("body instruction %s: resource annotations are not allowed in TDL", dest)
	}
	return in, p.ExpectPunct(";")
}
