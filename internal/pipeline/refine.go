package pipeline

import (
	"context"
	"fmt"

	"reticle/internal/asm"
	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/place"
	"reticle/internal/tdl"
	"reticle/internal/timing"
)

// Timing-driven placement refinement is the future-work direction the
// paper names explicitly: "There is plenty of exploration needed in the
// layout space i.e., incorporating timing information that is beyond the
// scope of this work" (§1). refinePlace starts from a solver placement,
// runs static timing, and greedily relocates instructions on the
// critical path to free slices that shorten it, iterating until no move
// helps or the budget runs out. Only instructions the source program
// left fully unconstrained (@prim(??, ??)) are moved; user pins and
// cascade chains keep the spots the constraints gave them.
//
// refineIters bounds improvement rounds; refineCandidates bounds how many
// alternative slices are tried per movable critical instruction per round.
const (
	refineIters      = 20
	refineCandidates = 24
)

// refinePlace runs solver placement under opts, then timing-driven
// refinement: the placement solve observes cancellation mid-search, and
// budget exhaustion degrades to the greedy fallback (still refined
// afterwards — refinement only needs a valid starting point). It returns
// the solver's result, whose Fn refinement relocated in place: the work
// counters, degradation marker, warm-start mode and recorded anchors
// describe the solver's layout, which is exactly what a future
// structurally identical compile wants to adopt.
func refinePlace(ctx context.Context, f *asm.Func, target *tdl.Target, dev *device.Device, opts place.Options) (*place.Result, error) {
	topts := timing.DefaultOptions()
	res, err := place.PlaceContext(ctx, f, dev, opts)
	if err != nil {
		return nil, err
	}
	cur := res.Fn
	byDest := make(map[string]int, len(cur.Body))
	for i, in := range cur.Body {
		byDest[in.Dest] = i
	}

	// occupancy tracks used slices per primitive.
	occupied := map[ir.Resource]map[int]bool{
		ir.ResLut: {},
		ir.ResDsp: {},
	}
	for _, in := range cur.Body {
		if in.IsWire() {
			continue
		}
		id, err := dev.SliceID(in.Loc.Prim, int(in.Loc.X.Off), int(in.Loc.Y.Off))
		if err != nil {
			return nil, fmt.Errorf("refine: %s: %w", in.Dest, err)
		}
		occupied[in.Loc.Prim][id] = true
	}

	// One set of timing tables for every candidate move tried below.
	var sta timing.Analyzer
	rep, err := sta.Analyze(cur, target, dev, topts)
	if err != nil {
		return nil, err
	}
	afterNs := rep.CriticalNs

	for iter := 0; iter < refineIters; iter++ {
		improved := false
		for _, dest := range rep.Path {
			bi, ok := byDest[dest]
			if !ok {
				continue // an input port
			}
			// Only an instruction whose location the source left fully
			// wildcarded moves.
			if src := &f.Body[bi]; src.IsWire() || !src.Loc.X.Wild || !src.Loc.Y.Wild {
				continue
			}
			in := &cur.Body[bi]
			prim := in.Loc.Prim
			curID, err := dev.SliceID(prim, int(in.Loc.X.Off), int(in.Loc.Y.Off))
			if err != nil {
				return nil, err
			}
			bestNs := afterNs
			bestID := curID
			tried := 0
			for id := 0; id < dev.Capacity(prim) && tried < refineCandidates; id++ {
				if occupied[prim][id] {
					continue
				}
				tried++
				x, y := dev.SliceCoords(id)
				in.Loc.X, in.Loc.Y = asm.At(int64(x)), asm.At(int64(y))
				cand, err := sta.Analyze(cur, target, dev, topts)
				if err != nil {
					return nil, err
				}
				if cand.CriticalNs < bestNs-1e-9 {
					bestNs = cand.CriticalNs
					bestID = id
				}
			}
			x, y := dev.SliceCoords(bestID)
			in.Loc.X, in.Loc.Y = asm.At(int64(x)), asm.At(int64(y))
			if bestID != curID {
				delete(occupied[prim], curID)
				occupied[prim][bestID] = true
				afterNs = bestNs
				improved = true
			}
		}
		if !improved {
			break
		}
		rep, err = sta.Analyze(cur, target, dev, topts)
		if err != nil {
			return nil, err
		}
		afterNs = rep.CriticalNs
	}
	return res, nil
}
