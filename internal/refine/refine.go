// Package refine implements timing-driven placement refinement — the
// future-work direction the paper names explicitly: "There is plenty of
// exploration needed in the layout space i.e., incorporating timing
// information that is beyond the scope of this work" (§1).
//
// The refiner starts from a solver placement (package place), runs static
// timing (package timing), and greedily relocates instructions on the
// critical path to free slices that shorten it, iterating until no move
// helps or the budget runs out. Only instructions the source program left
// fully unconstrained (@prim(??, ??)) are moved; user pins and cascade
// chains keep the spots the constraints gave them.
package refine

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

// Options bounds the refinement.
type Options struct {
	// MaxIters bounds improvement rounds; 0 means 20.
	MaxIters int
	// Candidates bounds how many alternative slices are tried per movable
	// critical instruction per round; 0 means 24.
	Candidates int
	// Place configures the initial solver placement.
	Place place.Options
	// Timing overrides the delay model.
	Timing timing.Options
}

// Result reports the refinement outcome.
type Result struct {
	// Placed is the refined device-specific program.
	Placed *asm.Func
	// BeforeNs and AfterNs are the critical paths around refinement.
	BeforeNs float64
	AfterNs  float64
	// Moves counts accepted relocations.
	Moves int
	// Solver is the solver placement refinement started from: its work
	// counters, degradation marker, warm-start mode, and recorded anchors
	// (which describe the solver's layout — exactly what a future
	// structurally identical compile wants to adopt). Refinement relocates
	// instructions in place, so Solver.Fn is Placed; Solver.Slots, MaxX
	// and MaxY still describe the layout before any move.
	Solver *place.Result
}

// Place runs solver placement followed by timing-driven refinement.
func Place(f *asm.Func, target *tdl.Target, dev *device.Device, opts Options) (*Result, error) {
	return PlaceContext(context.Background(), f, target, dev, opts)
}

// PlaceContext is Place under a context: the placement solve observes
// cancellation mid-search, and budget exhaustion degrades to the greedy
// fallback (still refined afterwards — refinement only needs a valid
// starting point).
func PlaceContext(ctx context.Context, f *asm.Func, target *tdl.Target, dev *device.Device, opts Options) (*Result, error) {
	if opts.MaxIters == 0 {
		opts.MaxIters = 20
	}
	if opts.Candidates == 0 {
		opts.Candidates = 24
	}
	if opts.Timing.UnitNs == 0 {
		opts.Timing = timing.DefaultOptions()
	}
	res, err := place.PlaceContext(ctx, f, dev, opts.Place)
	if err != nil {
		return nil, err
	}
	cur := res.Fn

	// movable marks body indices whose location the source left fully
	// wildcarded.
	movable := make([]bool, len(f.Body))
	for i, in := range f.Body {
		if !in.IsWire() && in.Loc.X.Wild && in.Loc.Y.Wild {
			movable[i] = true
		}
	}
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
	rep, err := sta.Analyze(cur, target, dev, opts.Timing)
	if err != nil {
		return nil, err
	}
	out := &Result{Placed: cur, BeforeNs: rep.CriticalNs, AfterNs: rep.CriticalNs, Solver: res}

	for iter := 0; iter < opts.MaxIters; iter++ {
		improved := false
		for _, dest := range rep.Path {
			bi, ok := byDest[dest]
			if !ok || cur.Body[bi].IsWire() || !movable[bi] {
				continue
			}
			in := &cur.Body[bi]
			prim := in.Loc.Prim
			curID, err := dev.SliceID(prim, int(in.Loc.X.Off), int(in.Loc.Y.Off))
			if err != nil {
				return nil, err
			}
			bestNs := out.AfterNs
			bestID := curID
			tried := 0
			for id := 0; id < dev.Capacity(prim) && tried < opts.Candidates; id++ {
				if occupied[prim][id] {
					continue
				}
				tried++
				x, y := dev.SliceCoords(id)
				in.Loc.X, in.Loc.Y = asm.At(int64(x)), asm.At(int64(y))
				cand, err := sta.Analyze(cur, target, dev, opts.Timing)
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
				out.AfterNs = bestNs
				out.Moves++
				improved = true
			}
		}
		if !improved {
			break
		}
		rep, err = sta.Analyze(cur, target, dev, opts.Timing)
		if err != nil {
			return nil, err
		}
		out.AfterNs = rep.CriticalNs
	}
	return out, nil
}
