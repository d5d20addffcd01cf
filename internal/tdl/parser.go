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
	var defs []*Def
	for !p.AtEOF() {
		d, err := parseDef(p)
		if err := p.Settle("tdl", err); err != nil {
			return nil, err
		}
		defs = append(defs, d)
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("tdl: no definitions in input")
	}
	return NewTarget(name, defs)
}

func parseDef(p *ir.Parser) (*Def, error) {
	name, err := p.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct("["); err != nil {
		return nil, err
	}
	primName, err := p.ExpectIdent()
	if err != nil {
		return nil, err
	}
	prim, err := ir.ParseResource(primName)
	if err != nil {
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
	if err := p.ExpectPunct("]"); err != nil {
		return nil, err
	}
	inputs, err := p.ParsePorts()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct("->"); err != nil {
		return nil, err
	}
	outs, err := p.ParsePorts()
	if err != nil {
		return nil, err
	}
	if len(outs) != 1 {
		return nil, fmt.Errorf("definition %s: exactly one output required, got %d", name, len(outs))
	}
	if err := p.ExpectPunct("{"); err != nil {
		return nil, err
	}
	var body []ir.Instr
	for !p.AtPunct("}") {
		in, err := parseBodyInstr(p)
		if err != nil {
			return nil, fmt.Errorf("definition %s: %w", name, err)
		}
		body = append(body, in)
	}
	if err := p.ExpectPunct("}"); err != nil {
		return nil, err
	}
	return &Def{
		Name:    name,
		Prim:    prim,
		Area:    int(area),
		Latency: int(latency),
		Inputs:  inputs,
		Output:  outs[0],
		Body:    body,
	}, nil
}

// parseBodyInstr parses one TDL body instruction: an IR instruction without
// a resource annotation.
func parseBodyInstr(p *ir.Parser) (ir.Instr, error) {
	var in ir.Instr
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
	op, err := ir.ParseOp(opName)
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
	if p.AtPunct("@") {
		return in, fmt.Errorf("body instruction %s: resource annotations are not allowed in TDL", dest)
	}
	if err := p.ExpectPunct(";"); err != nil {
		return in, err
	}
	return ir.Instr{Dest: dest, Type: typ, Op: op, Attrs: attrs, Args: args, Res: ir.ResAny}, nil
}
