package place

import (
	"errors"
	"fmt"

	"reticle/internal/asm"
	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/sat"
)

// Verify checks that placed is a valid placement of orig on dev: every
// non-wire instruction resolved to a literal slice of its primitive
// kind, in range, pairwise distinct, with every literal pin and every
// relative (shared coordinate variable + offset) constraint of the
// original program honored. It is the satisfiability check run over the
// greedy fallback before a Degraded artifact is served, and the oracle
// the step-budget chaos tests lean on.
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
			c   asm.Coord
			v   int
			isY bool
		}{{in.Loc.X, s.X, false}, {in.Loc.Y, s.Y, true}} {
			switch {
			case ax.c.IsLiteral():
				if int(ax.c.Off) != ax.v {
					return fmt.Errorf("place: verify: %s pinned to %d, placed at %d", in.Dest, ax.c.Off, ax.v)
				}
			case ax.c.Var != "":
				base := ax.v - int(ax.c.Off)
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

// PlaceSAT solves the placement problem through the propositional route:
// one Boolean variable per (cluster, anchor) pair, exactly-one per cluster,
// and a conflict clause for every overlapping anchor pair. It exists as a
// cross-check of the production CSP path (the paper phrases placement as a
// SAT problem for Z3, §5.3); tests assert the two engines agree.
//
// The encoding is quadratic in anchors and is intended for small devices.
func PlaceSAT(f *asm.Func, dev *device.Device) (map[string]Slot, error) {
	clusters, err := buildClusters(f, dev)
	if err != nil {
		return nil, err
	}
	counts := map[ir.Resource]int{}
	for _, c := range clusters {
		counts[c.prim] += len(c.members)
	}
	for prim, n := range counts {
		if cap := dev.Capacity(prim); n > cap {
			return nil, fmt.Errorf("place: %d %s instructions exceed device capacity %d",
				n, prim, cap)
		}
	}
	bounds := map[ir.Resource][2]int{
		ir.ResLut: {dev.NumCols(ir.ResLut), dev.Height},
		ir.ResDsp: {dev.NumCols(ir.ResDsp), dev.Height},
	}

	var s sat.Solver
	type choice struct {
		cluster int
		anchor  int
	}
	var byLit []choice // literal var index - 1 -> choice
	vars := make([][]sat.Lit, len(clusters))
	domains := make([][]int, len(clusters))

	for ci, c := range clusters {
		dom := anchorDomain(dev, c.shape(), bounds[c.prim])
		if len(dom) == 0 {
			return nil, fmt.Errorf("place: cluster at %s has no feasible anchor", c.members[0].dest)
		}
		domains[ci] = dom
		lits := make([]sat.Lit, len(dom))
		for ai, a := range dom {
			lits[ai] = s.NewVar()
			byLit = append(byLit, choice{cluster: ci, anchor: a})
		}
		s.ExactlyOne(lits)
		vars[ci] = lits
	}

	// Pairwise conflicts between same-primitive clusters.
	var words []uint64
	for ci := 0; ci < len(clusters); ci++ {
		for cj := ci + 1; cj < len(clusters); cj++ {
			a, b := clusters[ci], clusters[cj]
			if a.prim != b.prim {
				continue
			}
			d := diff(a, b, &words)
			for ai, av := range domains[ci] {
				for bi, bv := range domains[cj] {
					if d.has(bv - av) {
						s.AddClause(vars[ci][ai].Neg(), vars[cj][bi].Neg())
					}
				}
			}
		}
	}

	model, err := s.Solve()
	if err != nil {
		if errors.Is(err, sat.ErrUnsat) {
			return nil, fmt.Errorf("place: unsatisfiable (SAT engine): %w", err)
		}
		return nil, err
	}
	slots := make(map[string]Slot)
	for ci, lits := range vars {
		for ai, l := range lits {
			if !model[l.Var()-1] {
				continue
			}
			ax, ay := dev.SliceCoords(domains[ci][ai])
			for _, m := range clusters[ci].members {
				slots[m.dest] = Slot{Prim: clusters[ci].prim, X: ax + m.xoff, Y: ay + m.yoff}
			}
			break
		}
	}
	return slots, nil
}
