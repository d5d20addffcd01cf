// Package place implements Reticle's instruction placement stage (§5.3 of
// the paper): converting a family-specific assembly program (unresolved
// locations) into a device-specific one (resolved locations).
//
// Every assembly instruction must land on a slice of its primitive kind:
//
//   - the x coordinate must name a column of the right resource,
//   - the y coordinate must be within the column height,
//   - relative constraints (shared coordinate variables with offsets, the
//     cascade idiom of §5.2) must hold, and
//   - no two instructions may occupy the same slice.
//
// Instructions connected by shared coordinate variables form a rigid
// macro (e.g. a cascade chain) and are placed as a unit: one anchor
// variable whose members sit at fixed offsets. The constraints go to a
// finite-domain solver (package csp, the stand-in for the paper's Z3):
// independent instructions under an all-different propagator, macros under
// pairwise non-overlap. When requested, shrinking passes binary-search
// reduced areas, re-running the solver, to compact the layout (§5.3).
package place

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"reticle/internal/asm"
	"reticle/internal/csp"
	"reticle/internal/device"
	"reticle/internal/faults"
	"reticle/internal/ir"
	"reticle/internal/rerr"
)

// FaultSolverBudget, when armed, simulates the CSP solver exhausting its
// step budget on the first solve, forcing the greedy fallback path. The
// chaos sweep uses it to assert degradation (a valid, Degraded-marked
// placement) rather than failure.
var FaultSolverBudget = faults.Register("place/solver-budget",
	"CSP placement solver exhausts its step budget; greedy fallback must engage")

// FaultShrinkInterrupt, when armed, simulates the soft time budget
// expiring between shrink probes: the base placement is kept but must be
// marked Degraded, since a time-truncated compaction is not reproducible
// and must never be cached.
var FaultShrinkInterrupt = faults.Register("place/shrink-interrupt",
	"solver time budget expires mid-shrink; result must be kept but marked Degraded")

// Slot is a resolved location: a concrete slice of a primitive kind.
type Slot struct {
	Prim ir.Resource
	X, Y int
}

// Result is a successful placement.
type Result struct {
	// Fn is a copy of the input program with every location resolved.
	Fn *asm.Func
	// Slots maps instruction destinations to their slices.
	Slots map[string]Slot
	// SolverSteps totals search steps across all solver invocations.
	SolverSteps int
	// ShrinkIters counts shrink-pass solver re-runs (0 when disabled).
	// Probes answered by revalidation alone are not included — they are
	// counted in ProbesSkipped.
	ShrinkIters int
	// ProbesSkipped counts shrink probes whose tightened bound was
	// already satisfied by the previous solution: the revalidate fast
	// path answered them with an O(clusters²) check, no solver run.
	ProbesSkipped int
	// HintHits and HintTried measure the warm start: across successful
	// probe solves, HintTried variables carried a hint (their previous
	// anchor) and HintHits of them kept it in the new solution.
	HintHits, HintTried int
	// Anchors is the recorded final solution (nil when the placement is
	// Degraded — a budget-truncated layout must never be adopted by
	// future placements). The pipeline's hint cache stores it keyed by the
	// kernel's structural hash.
	Anchors *Anchors
	// WarmStart reports how Options.Hints were used: "adopted" (exact
	// signature match, solution taken verbatim, zero solver steps) or ""
	// (no hints, or hints ignored).
	WarmStart string
	// MaxX and MaxY record the final per-primitive bounding box.
	MaxX, MaxY map[ir.Resource]int
	// Degraded reports a budget-truncated placement: either the CSP
	// solver exhausted its step or time budget and the placement came
	// from the greedy first-fit fallback, or the soft time budget
	// expired mid-shrink and the compaction stopped early. Both are
	// valid (checked by Verify) but unoptimized, and both depend on
	// wall-clock time, so degraded results are never cached.
	Degraded bool
	// DegradedReason says which budget ran out, for stats and responses.
	DegradedReason string
}

// Options configures placement.
type Options struct {
	// Shrink enables the binary-search area compaction passes.
	Shrink bool
	// MaxSteps bounds each solver invocation; 0 means the csp default.
	MaxSteps int
	// SolverTimeout is a soft per-placement time budget: when the CSP
	// search runs past it, the solver is interrupted and the greedy
	// fallback produces a valid but unoptimized placement (Degraded).
	// 0 means no time budget. This is independent of the context
	// deadline, which fails the kernel rather than degrading it.
	SolverTimeout time.Duration
	// Hints, when non-nil, is a previously recorded solution (see
	// Anchors). On an exact problem-signature match the solution is
	// adopted outright — zero solver steps, byte-identical to the cold
	// solve by determinism. On a mismatch the hints are ignored.
	Hints *Anchors
}

// member is one instruction within a placement cluster.
type member struct {
	index      int // body index
	dest       string
	xoff, yoff int
	xlit, ylit int // literal coordinate, or -1
}

// cluster is a rigid group of instructions placed together: either a
// singleton (independent instruction) or a macro bound by shared
// coordinate variables.
type cluster struct {
	prim    ir.Resource
	members []member
	// yoffs/xoffs are the distinct member offsets, for overlap tests.
	minX, maxX, minY, maxY int
}

func (c *cluster) singleton() bool { return len(c.members) == 1 }

// PlaceContext resolves every assembly instruction's location on the
// device.
//
// It is deterministic and safe for concurrent use: it reads f and dev
// without mutating them (the result holds a placed clone of f) and keeps
// all solver state per call. The batch compiler leans on both properties.
//
// It degrades gracefully: when the CSP solver exhausts its step budget
// (Options.MaxSteps) or soft time budget (Options.SolverTimeout), the
// greedy first-fit fallback produces a valid but unoptimized placement,
// verified by Verify and marked Degraded, instead of failing the kernel.
// A soft time budget expiring mid-shrink keeps the already-valid base
// placement but also marks it Degraded: the compaction was truncated by
// wall-clock time, so the result must never be cached. A dead context
// aborts the solve promptly (the solver polls it mid-search) and fails
// with the context's typed classification — degrading would be
// pointless when the caller has already gone away.
func PlaceContext(ctx context.Context, f *asm.Func, dev *device.Device, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	clusters, err := buildClusters(f)
	if err != nil {
		return nil, rerr.Wrap(rerr.Permanent, "placement_invalid",
			"placement constraints invalid", err)
	}

	// Capacity pre-check.
	counts := map[ir.Resource]int{}
	for _, c := range clusters {
		counts[c.prim] += len(c.members)
	}
	for prim, n := range counts {
		if cap := dev.Capacity(prim); n > cap {
			return nil, rerr.Wrap(rerr.Exhausted, "device_capacity",
				"device capacity exceeded",
				fmt.Errorf("place: %d %s instructions exceed device capacity %d", n, prim, cap))
		}
	}

	full := map[ir.Resource][2]int{
		ir.ResLut: {dev.NumCols(ir.ResLut), dev.Height},
		ir.ResDsp: {dev.NumCols(ir.ResDsp), dev.Height},
	}

	// The solver polls interrupt mid-search: a dead context or an
	// exceeded soft time budget aborts within ~1k steps instead of
	// draining the full step budget first.
	var softDeadline time.Time
	if opts.SolverTimeout > 0 {
		softDeadline = time.Now().Add(opts.SolverTimeout)
	}
	interrupt := func() bool {
		if ctx.Err() != nil {
			return true
		}
		return !softDeadline.IsZero() && time.Now().After(softDeadline)
	}

	if FaultSolverBudget.Fire(ctx) != nil {
		return degrade(f, dev, clusters, full, "injected solver budget exhaustion")
	}

	sig := problemSignature(dev, opts, clusters)
	if adoptable(opts.Hints, sig, clusters, dev, full) {
		// Exact match: the recorded solution is what this search would
		// find, so take it without running the solver or the shrink pass
		// (the recording compile already compacted it).
		res := writeBack(f, dev, clusters, opts.Hints.Sol)
		res.WarmStart = "adopted"
		res.Anchors = opts.Hints
		return res, nil
	}

	// Every solve of this placement — the full one and the shrink probes,
	// which cover only the probed primitive's clusters (constraints never
	// couple primitives) — recycles one scratch.
	var scratch csp.Scratch
	sol, steps, err := solve(clusters, dev, full, opts.MaxSteps, interrupt, &scratch)
	totalSteps := steps
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, rerr.Wrap(rerr.ClassOf(cerr), rerr.CodeOf(cerr),
				"placement aborted", cerr)
		}
		var limit *csp.ErrLimit
		var intr *csp.ErrInterrupted
		switch {
		case errors.As(err, &limit):
			return degrade(f, dev, clusters, full,
				fmt.Sprintf("solver step budget exhausted after %d steps", limit.Steps))
		case errors.As(err, &intr):
			return degrade(f, dev, clusters, full,
				fmt.Sprintf("solver time budget %s exhausted after %d steps",
					opts.SolverTimeout, intr.Steps))
		default:
			return nil, rerr.Wrap(rerr.Permanent, "placement_unsat",
				"no feasible placement", err)
		}
	}
	shrinkIters := 0
	probesSkipped := 0
	hintHits, hintTried := 0, 0
	bounds := full
	interrupted := false

	if opts.Shrink {
		// Probes are capped: a tight bound that sends the solver into deep
		// backtracking is treated as infeasible, trading optimality of the
		// compaction for bounded compile time (the pass is best-effort).
		probeSteps := opts.MaxSteps
		if probeSteps == 0 {
			probeSteps = 100_000
		}
		if FaultShrinkInterrupt.Fire(ctx) != nil {
			interrupted = true
		}
		// Probes are warm-started from the current solution.
		for _, prim := range []ir.Resource{ir.ResDsp, ir.ResLut} {
			if counts[prim] == 0 || interrupted {
				continue
			}
			subset := primSubset(clusters, prim)
			for _, axis := range []int{1, 0} { // rows first, then columns
				lo := shrinkFloor(clusters, dev, bounds, prim, axis)
				best := bounds[prim][axis]
				// The first probe goes straight to the packing floor: when
				// the floor is tight (common for dense macro chains) one
				// probe — often answered by revalidation alone — settles
				// the axis, and the old infeasible binary-search probes
				// that burned the full step budget never run.
				first := true
				for lo < best {
					mid := lo
					if !first {
						mid = (lo + best) / 2
					}
					first = false
					probe := cloneBounds(bounds)
					b := probe[prim]
					b[axis] = mid
					probe[prim] = b
					// Revalidate-before-solve fast path: if the current
					// solution already fits the tightened bound, the probe
					// is answered without touching the solver.
					if revalidate(clusters, dev, sol, probe) {
						probesSkipped++
						best = usedExtent(dev, clusters, sol, prim, axis) + 1
						continue
					}
					s2, st, err := solveSubset(clusters, subset, dev, probe, probeSteps, interrupt, sol, &scratch)
					totalSteps += st.steps
					shrinkIters++
					var intr *csp.ErrInterrupted
					if errors.As(err, &intr) {
						// Time budget or context expired mid-probe: the base
						// solution is already valid, so stop compacting and
						// keep what we have — shrinking is best-effort.
						interrupted = true
						break
					}
					if err == nil {
						sol = s2
						hintHits += st.hintHits
						hintTried += st.hintsTried
						// Clamp to what the probe actually used: the solver
						// packs low-first, so the solution is often tighter
						// than the bound it was asked for, and the probes
						// between its extent and mid would be redundant.
						best = usedExtent(dev, clusters, sol, prim, axis) + 1
					} else {
						lo = mid + 1
						// The current solution is a known-feasible bound.
						if e := usedExtent(dev, clusters, sol, prim, axis) + 1; e < best {
							best = e
						}
					}
				}
				b := bounds[prim]
				b[axis] = best
				bounds[prim] = b
				if interrupted {
					break
				}
			}
		}
	}

	if interrupted {
		// A partially-shrunk layout depends on wall-clock time. Serving
		// it unmarked would cache a time-truncated artifact under the
		// same content-addressed key as a fully-shrunk one, so it must
		// either fail (dead caller) or be marked Degraded (never cached).
		if cerr := ctx.Err(); cerr != nil {
			return nil, rerr.Wrap(rerr.ClassOf(cerr), rerr.CodeOf(cerr),
				"placement aborted", cerr)
		}
	}

	res := writeBack(f, dev, clusters, sol)
	res.SolverSteps = totalSteps
	res.ShrinkIters = shrinkIters
	res.ProbesSkipped = probesSkipped
	res.HintHits = hintHits
	res.HintTried = hintTried
	if interrupted {
		res.Degraded = true
		res.DegradedReason = fmt.Sprintf(
			"solver time budget %s expired during shrink after %d probes; placement valid but not fully compacted",
			opts.SolverTimeout, shrinkIters)
	} else {
		// Only full-quality solutions become hints: a time-truncated
		// layout is wall-clock-dependent and must never be adopted by a
		// future placement.
		res.Anchors = &Anchors{Signature: sig, Sol: append([]int(nil), sol...), ColdSteps: totalSteps}
	}
	return res, nil
}

// writeBack clones f and resolves every member location from the solved
// anchor slice ids.
func writeBack(f *asm.Func, dev *device.Device, clusters []*cluster, sol []int) *Result {
	out := f.Clone()
	res := &Result{
		Fn:    out,
		Slots: make(map[string]Slot),
		MaxX:  map[ir.Resource]int{},
		MaxY:  map[ir.Resource]int{},
	}
	for ci, c := range clusters {
		ax, ay := dev.SliceCoords(sol[ci])
		for _, m := range c.members {
			x, y := ax+m.xoff, ay+m.yoff
			res.Slots[m.dest] = Slot{Prim: c.prim, X: x, Y: y}
			out.Body[m.index].Loc = asm.Loc{
				Prim: c.prim,
				X:    asm.At(int64(x)),
				Y:    asm.At(int64(y)),
			}
			if x > res.MaxX[c.prim] {
				res.MaxX[c.prim] = x
			}
			if y > res.MaxY[c.prim] {
				res.MaxY[c.prim] = y
			}
		}
	}
	return res
}

// buildClusters groups instructions by shared coordinate variables
// (union-find) and validates each group against the supported forms.
func buildClusters(f *asm.Func) ([]*cluster, error) {
	var infos []placeInfo
	for i, in := range f.Body {
		if in.IsWire() {
			continue
		}
		if in.Loc.Prim != ir.ResLut && in.Loc.Prim != ir.ResDsp {
			return nil, fmt.Errorf("place: %s: location primitive %s", in.Dest, in.Loc.Prim)
		}
		infos = append(infos, placeInfo{index: i, in: in})
	}

	parent := make([]int, len(infos))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	byVar := map[string]int{}
	for i, inf := range infos {
		for _, c := range []asm.Coord{inf.in.Loc.X, inf.in.Loc.Y} {
			if c.Var == "" {
				continue
			}
			if j, ok := byVar[c.Var]; ok {
				union(i, j)
			} else {
				byVar[c.Var] = i
			}
		}
	}

	groups := map[int][]placeInfo{}
	var order []int
	for i, inf := range infos {
		r := find(i)
		if _, seen := groups[r]; !seen {
			order = append(order, r)
		}
		groups[r] = append(groups[r], inf)
	}
	sort.Ints(order)

	var clusters []*cluster
	for _, r := range order {
		c, err := makeCluster(groups[r])
		if err != nil {
			return nil, err
		}
		clusters = append(clusters, c)
	}
	return clusters, nil
}

// placeInfo pairs an instruction with its body index.
type placeInfo struct {
	index int
	in    asm.Instr
}

// makeCluster validates one group. Multi-member groups must share exactly
// one x variable and one y variable, used by every member; singletons may
// mix variables, literals, and wildcards freely.
func makeCluster(group []placeInfo) (*cluster, error) {
	c := &cluster{prim: group[0].in.Loc.Prim}
	if len(group) > 1 {
		var xvar, yvar string
		for _, g := range group {
			if g.in.Loc.Prim != c.prim {
				return nil, fmt.Errorf(
					"place: instructions %s and %s share coordinates across primitives %s and %s",
					group[0].in.Dest, g.in.Dest, c.prim, g.in.Loc.Prim)
			}
			for _, rc := range []struct {
				co   asm.Coord
				slot *string
				axis string
			}{{g.in.Loc.X, &xvar, "column"}, {g.in.Loc.Y, &yvar, "row"}} {
				if rc.co.Var == "" {
					return nil, fmt.Errorf(
						"place: %s: %s coordinate must use the shared variable in a constrained group",
						g.in.Dest, rc.axis)
				}
				if *rc.slot == "" {
					*rc.slot = rc.co.Var
				} else if *rc.slot != rc.co.Var {
					return nil, fmt.Errorf(
						"place: group uses two %s variables (%s, %s)", rc.axis, *rc.slot, rc.co.Var)
				}
			}
		}
		if xvar == yvar {
			return nil, fmt.Errorf("place: coordinate variable %q used as both column and row", xvar)
		}
	}

	occupied := map[[2]int]string{}
	for _, g := range group {
		m := member{index: g.index, dest: g.in.Dest, xlit: -1, ylit: -1}
		m.xoff = int(g.in.Loc.X.Off)
		m.yoff = int(g.in.Loc.Y.Off)
		if len(group) == 1 {
			// Singletons anchor at their own slot; literals filter the
			// domain directly and variables reduce to offsets.
			if g.in.Loc.X.IsLiteral() {
				m.xlit = int(g.in.Loc.X.Off)
				m.xoff = 0
			}
			if g.in.Loc.X.Wild {
				m.xoff = 0
			}
			if g.in.Loc.Y.IsLiteral() {
				m.ylit = int(g.in.Loc.Y.Off)
				m.yoff = 0
			}
			if g.in.Loc.Y.Wild {
				m.yoff = 0
			}
		}
		key := [2]int{m.xoff, m.yoff}
		if prev, dup := occupied[key]; dup {
			return nil, fmt.Errorf(
				"place: %s and %s are constrained to the same slice", prev, m.dest)
		}
		occupied[key] = m.dest
		c.members = append(c.members, m)
	}
	c.minX, c.maxX = c.members[0].xoff, c.members[0].xoff
	c.minY, c.maxY = c.members[0].yoff, c.members[0].yoff
	for _, m := range c.members[1:] {
		c.minX = min(c.minX, m.xoff)
		c.maxX = max(c.maxX, m.xoff)
		c.minY = min(c.minY, m.yoff)
		c.maxY = max(c.maxY, m.yoff)
	}
	return c, nil
}

// solve runs one CSP over every cluster under the given per-primitive
// bounds, returning the anchor slice id chosen for each cluster.
// interrupt (nil = never) is polled mid-search so deadlines abort long
// solves promptly.
func solve(clusters []*cluster, dev *device.Device, bounds map[ir.Resource][2]int, maxSteps int, interrupt func() bool, sc *csp.Scratch) ([]int, int, error) {
	sol, st, err := solveSubset(clusters, nil, dev, bounds, maxSteps, interrupt, nil, sc)
	return sol, st.steps, err
}

// solveStats carries per-solve counters out of solveSubset.
type solveStats struct {
	steps      int
	hintsTried int
	hintHits   int
}

// primSubset lists the indices of clusters on the given primitive.
func primSubset(clusters []*cluster, prim ir.Resource) []int {
	var subset []int
	for ci, c := range clusters {
		if c.prim == prim {
			subset = append(subset, ci)
		}
	}
	return subset
}

// solveSubset runs one CSP over the clusters listed in subset (nil = all)
// under the given per-primitive bounds. prev, when non-nil, is a
// full-length anchor solution used two ways: subset members take their
// previous anchor as a deterministic warm-start hint, and clusters
// outside the subset inherit prev's anchors unchanged in the returned
// solution — sound because no placement constraint couples clusters of
// different primitives (shared coordinate variables across primitives
// are rejected by makeCluster, and all-different groups and non-overlap
// pairs are per-primitive). sc, when non-nil, recycles solver buffers
// across probe solves.
func solveSubset(clusters []*cluster, subset []int, dev *device.Device, bounds map[ir.Resource][2]int, maxSteps int, interrupt func() bool, prev []int, sc *csp.Scratch) ([]int, solveStats, error) {
	if subset == nil {
		subset = make([]int, len(clusters))
		for ci := range clusters {
			subset[ci] = ci
		}
	}
	var p csp.Problem
	if maxSteps > 0 {
		p.SetMaxSteps(maxSteps)
	}
	if interrupt != nil {
		p.SetInterrupt(interrupt)
	}
	vars := make([]csp.Var, len(clusters))
	inSubset := make([]bool, len(clusters))
	isMacro := make([]bool, len(clusters))
	singles := map[ir.Resource][]csp.Var{}
	var macros []int
	var hints []int
	// One candidate set per distinct cluster shape, shared by every cluster
	// of that shape: a kernel's hundreds of unconstrained LUT singletons all
	// range over the same slices.
	domains := map[shape]*csp.Domain{}

	for _, ci := range subset {
		c := clusters[ci]
		inSubset[ci] = true
		sh := c.shape()
		dom, ok := domains[sh]
		if !ok {
			dom = csp.NewDomain(anchorDomain(dev, sh, bounds[c.prim]))
			domains[sh] = dom
		}
		if dom.Len() == 0 {
			return nil, solveStats{}, &csp.ErrUnsat{Reason: fmt.Sprintf(
				"cluster at %s has no feasible anchor within bounds %dx%d on %s",
				c.members[0].dest, bounds[c.prim][0], bounds[c.prim][1], c.prim)}
		}
		vars[ci] = p.NewVarIn(c.members[0].dest, dom)
		if prev != nil {
			hints = append(hints, prev[ci])
		}
		if c.singleton() && c.members[0].xoff == 0 && c.members[0].yoff == 0 {
			singles[c.prim] = append(singles[c.prim], vars[ci])
		} else {
			macros = append(macros, ci)
			isMacro[ci] = true
		}
	}
	if prev != nil {
		p.SetHints(hints)
	}
	// Register groups in fixed primitive order: solver behavior must not
	// depend on map iteration, so parallel batch output stays
	// byte-identical to serial compilation.
	for _, prim := range []ir.Resource{ir.ResLut, ir.ResDsp} {
		if vs := singles[prim]; len(vs) > 1 {
			p.AddAllDifferent(vs)
		}
	}
	// Macro clusters: pairwise non-overlap with every same-prim cluster.
	height := dev.Height
	for _, mi := range macros {
		mc := clusters[mi]
		for _, cj := range subset {
			oc := clusters[cj]
			if cj == mi || oc.prim != mc.prim {
				continue
			}
			if cj < mi && isMacro[cj] {
				continue // macro-macro pairs added once
			}
			a, b := mc, oc
			p.AddBinary(vars[mi], vars[cj], func(av, bv int) bool {
				return !clustersOverlap(a, b, av, bv, height)
			})
		}
	}
	sol, err := p.SolveScratch(sc)
	st := solveStats{steps: p.Steps()}
	if err != nil {
		return nil, st, err
	}
	st.hintsTried = p.HintsTried()
	st.hintHits = p.HintHits()
	out := make([]int, len(clusters))
	if prev != nil {
		copy(out, prev)
	}
	for ci := range clusters {
		if inSubset[ci] {
			out[ci] = sol[vars[ci]]
		}
	}
	return out, st, nil
}

// revalidate reports whether an existing full solution already satisfies
// the (tightened) bounds: every member inside its primitive's bounds and
// the device, and no two same-primitive clusters overlapping — the same
// predicates the satcheck oracle applies, reduced to cluster form. The
// check is O(clusters²) with bounding-box rejection, orders of magnitude
// cheaper than a solver probe, and lets the shrink pass skip the solver
// whenever a probe only confirms what the current layout already proves.
func revalidate(clusters []*cluster, dev *device.Device, sol []int, bounds map[ir.Resource][2]int) bool {
	for ci, c := range clusters {
		ax, ay := dev.SliceCoords(sol[ci])
		b := bounds[c.prim]
		maxX, maxY := b[0], b[1]
		if n := dev.NumCols(c.prim); maxX > n {
			maxX = n
		}
		if maxY > dev.Height {
			maxY = dev.Height
		}
		for _, m := range c.members {
			x, y := ax+m.xoff, ay+m.yoff
			if x < 0 || x >= maxX || y < 0 || y >= maxY {
				return false
			}
		}
	}
	height := dev.Height
	for i, a := range clusters {
		for j := i + 1; j < len(clusters); j++ {
			b := clusters[j]
			if a.prim != b.prim {
				continue
			}
			if clustersOverlap(a, b, sol[i], sol[j], height) {
				return false
			}
		}
	}
	return true
}

// shape is everything about a cluster that decides which anchors are
// feasible for it: clusters of equal shape have equal anchor domains under
// equal bounds.
type shape struct {
	prim                   ir.Resource
	minX, maxX, minY, maxY int
	xlit, ylit             int // a singleton's literal coordinate, or -1
}

func (c *cluster) shape() shape {
	m0 := c.members[0] // only a singleton's member carries literals
	return shape{c.prim, c.minX, c.maxX, c.minY, c.maxY, m0.xlit, m0.ylit}
}

// anchorDomain enumerates, in ascending slice-id order, the anchor slices
// keeping every member of a cluster of the given shape within the device
// and the active bounds.
func anchorDomain(dev *device.Device, sh shape, b [2]int) []int {
	cols, height := dev.NumCols(sh.prim), dev.Height
	maxX, maxY := min(b[0], cols), min(b[1], height)
	// The anchor itself must name a slice, whatever the offsets around it.
	x0, x1 := max(-sh.minX, 0), min(maxX-sh.maxX, cols)
	y0, y1 := max(-sh.minY, 0), min(maxY-sh.maxY, height)
	if sh.xlit >= 0 {
		x0, x1 = max(x0, sh.xlit), min(x1, sh.xlit+1)
	}
	if sh.ylit >= 0 {
		y0, y1 = max(y0, sh.ylit), min(y1, sh.ylit+1)
	}
	if x0 >= x1 || y0 >= y1 {
		return nil
	}
	dom := make([]int, 0, (x1-x0)*(y1-y0))
	for x := x0; x < x1; x++ {
		for y := y0; y < y1; y++ {
			dom = append(dom, x*height+y) // device.SliceID, bounds already checked
		}
	}
	return dom
}

// clustersOverlap reports whether two clusters anchored at slice ids av,
// bv occupy a common slice.
func clustersOverlap(a, b *cluster, av, bv int, height int) bool {
	ax, ay := av/height, av%height
	bx, by := bv/height, bv%height
	// Quick bounding-box rejection.
	if ax+a.maxX < bx+b.minX || bx+b.maxX < ax+a.minX {
		return false
	}
	if ay+a.maxY < by+b.minY || by+b.maxY < ay+a.minY {
		return false
	}
	for _, ma := range a.members {
		for _, mb := range b.members {
			if ax+ma.xoff == bx+mb.xoff && ay+ma.yoff == by+mb.yoff {
				return true
			}
		}
	}
	return false
}

// shrinkFloor lower-bounds an axis during shrinking. Three sound bounds
// compose: no bound can beat the tallest/widest cluster span, nor pack
// more members than area allows, nor — the packing-aware strip bound —
// stack more rigid strips than the cross-section holds. A cheap floor
// that is also tight lets the shrink pass probe it first and settle the
// axis in one probe instead of binary-searching through bounds the
// solver must expensively prove infeasible (each such proof used to burn
// the full probe step budget).
func shrinkFloor(clusters []*cluster, dev *device.Device, bounds map[ir.Resource][2]int, prim ir.Resource, axis int) int {
	floor := 1
	count := 0
	// Strip decomposition: within a cluster, members sharing the same
	// other-axis offset are a rigid strip of that length along the probed
	// axis — they occupy that many distinct cells of one column (row).
	var strips []int
	stripOf := map[int]int{}
	for _, c := range clusters {
		if c.prim != prim {
			continue
		}
		count += len(c.members)
		span := c.maxY - c.minY + 1
		if axis == 0 {
			span = c.maxX - c.minX + 1
		}
		if span > floor {
			floor = span
		}
		for k := range stripOf {
			delete(stripOf, k)
		}
		for _, m := range c.members {
			other := m.xoff
			if axis == 0 {
				other = m.yoff
			}
			stripOf[other]++
		}
		for _, n := range stripOf {
			strips = append(strips, n)
		}
	}
	// Cross-section width: the other axis's current bound, clamped to
	// the device.
	other := bounds[prim][1-axis]
	if lim := dev.Height; axis == 0 && other > lim {
		other = lim
	}
	if lim := dev.NumCols(prim); axis == 1 && other > lim {
		other = lim
	}
	if other > 0 {
		// Area bound: members must fit within bound * other-axis extent.
		if byArea := (count + other - 1) / other; byArea > floor {
			floor = byArea
		}
		// Strip bound: a bound B offers floor(B/t) slots per column for
		// strips of length >= t, so across `other` columns feasibility
		// needs floor(B/t)*other >= N_t for every strip length t, where
		// N_t counts strips of length >= t. Solving for B per distinct t
		// gives B >= t*ceil(N_t/other); the floor is the max. This is a
		// relaxation (it ignores cross-axis rigidity), so it never
		// exceeds the true minimum feasible bound.
		sort.Sort(sort.Reverse(sort.IntSlice(strips)))
		for i, t := range strips {
			if t <= 1 {
				break // length-1 strips are covered by the area bound
			}
			nt := i + 1 // strips are sorted descending: strips[0..i] >= t
			if byStrip := t * ((nt + other - 1) / other); byStrip > floor {
				floor = byStrip
			}
		}
	}
	return floor
}

// usedExtent returns the highest occupied column (axis 0) or row (axis 1)
// for the primitive under the given solution.
func usedExtent(dev *device.Device, clusters []*cluster, sol []int, prim ir.Resource, axis int) int {
	best := 0
	for ci, c := range clusters {
		if c.prim != prim {
			continue
		}
		ax, ay := dev.SliceCoords(sol[ci])
		for _, m := range c.members {
			v := ay + m.yoff
			if axis == 0 {
				v = ax + m.xoff
			}
			if v > best {
				best = v
			}
		}
	}
	return best
}

func cloneBounds(b map[ir.Resource][2]int) map[ir.Resource][2]int {
	out := make(map[ir.Resource][2]int, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}
