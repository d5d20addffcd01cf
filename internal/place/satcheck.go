package place

import (
	"fmt"

	"reticle/internal/asm"
	"reticle/internal/device"
)

// Verify checks that placed is a valid placement of orig on dev: every
// non-wire instruction resolved to a literal slice of its primitive
// kind, in range, pairwise distinct, with every literal pin and every
// relative (shared coordinate variable + offset) constraint of the
// original program honored. A coordinate variable takes one value per
// axis, and that value must itself name a column (x) or a row (y) of the
// primitive, whatever the offsets around it: the rule the solver's
// anchor domains apply, so Verify accepts no placement the solver could
// not have returned. It is the satisfiability check run over the greedy
// fallback before a Degraded artifact is served, and the oracle the
// step-budget chaos tests lean on.
func Verify(orig, placed *asm.Func, dev *device.Device) error {
	if len(orig.Body) != len(placed.Body) {
		return fmt.Errorf("place: verify: body length %d != %d", len(placed.Body), len(orig.Body))
	}
	occupied := map[Slot]string{}
	coordVals := map[string]map[bool]int{} // var -> isY -> resolved base value
	for i, in := range orig.Body {
		if in.IsWire() {
			continue
		}
		loc := placed.Body[i].Loc
		if loc.Prim != in.Loc.Prim {
			return fmt.Errorf("place: verify: %s placed on %s, wants %s", in.Dest, loc.Prim, in.Loc.Prim)
		}
		if !loc.X.IsLiteral() || !loc.Y.IsLiteral() {
			return fmt.Errorf("place: verify: %s location not resolved to literals", in.Dest)
		}
		s := Slot{Prim: loc.Prim, X: int(loc.X.Off), Y: int(loc.Y.Off)}
		if s.X < 0 || s.X >= dev.NumCols(s.Prim) || s.Y < 0 || s.Y >= dev.Height {
			return fmt.Errorf("place: verify: %s out of range at (%d, %d)", in.Dest, s.X, s.Y)
		}
		if prev, dup := occupied[s]; dup {
			return fmt.Errorf("place: verify: %s and %s share slice (%s, %d, %d)",
				prev, in.Dest, s.Prim, s.X, s.Y)
		}
		occupied[s] = in.Dest
		for _, ax := range []struct {
			c    asm.Coord
			v, n int
			isY  bool
		}{{in.Loc.X, s.X, dev.NumCols(s.Prim), false}, {in.Loc.Y, s.Y, dev.Height, true}} {
			switch {
			case ax.c.IsLiteral():
				if int(ax.c.Off) != ax.v {
					return fmt.Errorf("place: verify: %s pinned to %d, placed at %d", in.Dest, ax.c.Off, ax.v)
				}
			case ax.c.Var != "":
				base := ax.v - int(ax.c.Off)
				if base < 0 || base >= ax.n {
					return fmt.Errorf("place: verify: %s: coordinate variable %s = %d is off the device [0,%d)",
						in.Dest, ax.c.Var, base, ax.n)
				}
				if coordVals[ax.c.Var] == nil {
					coordVals[ax.c.Var] = map[bool]int{}
				}
				if prev, seen := coordVals[ax.c.Var][ax.isY]; seen && prev != base {
					return fmt.Errorf("place: verify: coordinate variable %s inconsistent: %d vs %d",
						ax.c.Var, prev, base)
				}
				coordVals[ax.c.Var][ax.isY] = base
			}
		}
	}
	return nil
}
