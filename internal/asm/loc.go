// Package asm implements the Reticle assembly language (Fig. 5b of the
// paper): target-specific instructions with location semantics. A location
// names a primitive kind (LUT or DSP) and a Cartesian coordinate whose
// components may be integer literals, shared variables, sums with constant
// offsets, or the wildcard "??".
//
// Coordinate variables shared between instructions express relative layout
// constraints — e.g. @dsp(x, y) and @dsp(x, y+1) pin two operations to
// vertically adjacent slices of the same DSP column, enabling cascading
// (§5.2). The placement stage resolves variables and wildcards to concrete
// coordinates.
package asm

import (
	"strconv"

	"reticle/internal/ir"
)

// Coord is one coordinate expression θ: the wildcard "??", or a linear
// expression over at most one variable: Var + Off ("y+1") or just Off ("3").
// The grammar's e + e sums are constant-folded at parse time.
type Coord struct {
	Wild bool
	Var  string // empty when the expression is a plain literal
	Off  int64
}

// Wildcard returns the unconstrained coordinate "??".
func Wildcard() Coord { return Coord{Wild: true} }

// At returns the literal coordinate i.
func At(i int64) Coord { return Coord{Off: i} }

// VarPlus returns the coordinate expression v + off.
func VarPlus(v string, off int64) Coord { return Coord{Var: v, Off: off} }

// IsLiteral reports whether the coordinate is a fully resolved integer.
func (c Coord) IsLiteral() bool { return !c.Wild && c.Var == "" }

// String renders the coordinate in source syntax.
func (c Coord) String() string { return string(c.appendTo(nil)) }

func (c Coord) appendTo(b []byte) []byte {
	switch {
	case c.Wild:
		return append(b, "??"...)
	case c.Var == "":
		return strconv.AppendInt(b, c.Off, 10)
	case c.Off == 0:
		return append(b, c.Var...)
	case c.Off < 0:
		return strconv.AppendInt(append(b, c.Var...), c.Off, 10) // "y-1"
	default:
		return strconv.AppendInt(append(append(b, c.Var...), '+'), c.Off, 10)
	}
}

// Loc is an instruction location: primitive kind plus (x, y) coordinates.
// x is the column index; y is the row within the column.
type Loc struct {
	Prim ir.Resource // ResLut or ResDsp
	X, Y Coord
}

// String renders the location in source syntax: "dsp(x, y+1)".
func (l Loc) String() string { return string(l.appendTo(nil)) }

func (l Loc) appendTo(b []byte) []byte {
	b = append(append(b, l.Prim.String()...), '(')
	b = append(l.X.appendTo(b), ", "...)
	return append(l.Y.appendTo(b), ')')
}

// Resolved reports whether both coordinates are integer literals.
func (l Loc) Resolved() bool { return l.X.IsLiteral() && l.Y.IsLiteral() }

// Unplaced returns a fully wildcarded location on the given primitive.
func Unplaced(prim ir.Resource) Loc {
	return Loc{Prim: prim, X: Wildcard(), Y: Wildcard()}
}
