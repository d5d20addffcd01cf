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
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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
	// id is the member's slice-id offset from its cluster's anchor,
	// xoff·height + yoff: a member of a cluster anchored at slice id a
	// sits on slice a + id.
	id int
}

// cluster is a rigid group of instructions placed together: either a
// singleton (independent instruction) or a macro bound by shared
// coordinate variables.
type cluster struct {
	prim    ir.Resource
	members []member
	// The bounding box of the member offsets.
	minX, maxX, minY, maxY int
	// foot is the set of member ids. It is empty for a cluster whose
	// bounding box does not fit the device: no anchor domain admits one,
	// so no overlap test ever asks about it.
	foot footprint
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
	clusters, err := buildClusters(f, dev)
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
	var sc scratch
	sol, steps, err := solve(clusters, dev, full, opts.MaxSteps, interrupt, &sc)
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
					s2, st, err := solveSubset(clusters, subset, dev, probe, probeSteps, interrupt, sol, &sc)
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
	for ci, c := range clusters {
		ax, ay := dev.SliceCoords(sol[ci])
		for _, m := range c.members {
			out.Body[m.index].Loc = asm.Loc{
				Prim: c.prim,
				X:    asm.At(int64(ax + m.xoff)),
				Y:    asm.At(int64(ay + m.yoff)),
			}
		}
	}
	return &Result{Fn: out}
}

// buildClusters groups instructions by shared coordinate variables
// (union-find) and validates each group against the supported forms. The
// clusters and their members are carved from one slab each; clusters
// come in ascending order of their union-find root, members in body
// order.
func buildClusters(f *asm.Func, dev *device.Device) ([]*cluster, error) {
	body := f.Body
	placed := make([]int, 0, len(body)) // body index of each placed instruction
	for i := range body {
		in := &body[i]
		if in.IsWire() {
			continue
		}
		if in.Loc.Prim != ir.ResLut && in.Loc.Prim != ir.ResDsp {
			return nil, fmt.Errorf("place: %s: location primitive %s", in.Dest, in.Loc.Prim)
		}
		placed = append(placed, i)
	}

	n := len(placed)
	// parent, then the root of each placed instruction; size, then the
	// next free slot of each root's group in the member slab.
	parent := make([]int32, 2*n)
	parent, next := parent[:n:n], parent[n:]
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	var byVar map[string]int32
	for i, bi := range placed {
		loc := &body[bi].Loc
		for _, v := range [2]string{loc.X.Var, loc.Y.Var} {
			if v == "" {
				continue
			}
			if byVar == nil {
				byVar = map[string]int32{}
			}
			if j, ok := byVar[v]; ok {
				parent[find(int32(i))] = find(j)
			} else {
				byVar[v] = int32(i)
			}
		}
	}

	// Counting pass: group sizes by root, then each group's slab offset.
	groups := 0
	for i := range parent {
		r := find(int32(i))
		parent[i] = r
		if next[r] == 0 {
			groups++
		}
		next[r]++
	}
	slab := make([]cluster, groups)
	clusters := make([]*cluster, groups)
	members := make([]member, n)
	off := int32(0)
	for r, g := 0, 0; r < n; r++ {
		if size := next[r]; size > 0 {
			slab[g].members = members[off : off+size : off+size]
			clusters[g] = &slab[g]
			next[r] = off
			off += size
			g++
		}
	}
	for i, bi := range placed {
		r := parent[i]
		members[next[r]].index = bi
		next[r]++
	}
	var words []uint64
	for _, c := range clusters {
		if err := makeCluster(c, body, dev, &words); err != nil {
			return nil, err
		}
	}
	return clusters, nil
}

// makeCluster fills in one group whose members carry their body indices.
// Multi-member groups must share exactly one x variable and one y
// variable, used by every member; singletons may mix variables, literals,
// and wildcards freely. words is the slab the footprints are carved from.
func makeCluster(c *cluster, body []asm.Instr, dev *device.Device, words *[]uint64) error {
	ms := c.members
	first := &body[ms[0].index]
	c.prim = first.Loc.Prim
	if len(ms) > 1 {
		var xvar, yvar string
		for _, m := range ms {
			in := &body[m.index]
			if in.Loc.Prim != c.prim {
				return fmt.Errorf(
					"place: instructions %s and %s share coordinates across primitives %s and %s",
					first.Dest, in.Dest, c.prim, in.Loc.Prim)
			}
			for _, rc := range [2]struct {
				co   asm.Coord
				slot *string
				axis string
			}{{in.Loc.X, &xvar, "column"}, {in.Loc.Y, &yvar, "row"}} {
				if rc.co.Var == "" {
					return fmt.Errorf(
						"place: %s: %s coordinate must use the shared variable in a constrained group",
						in.Dest, rc.axis)
				}
				if *rc.slot == "" {
					*rc.slot = rc.co.Var
				} else if *rc.slot != rc.co.Var {
					return fmt.Errorf(
						"place: group uses two %s variables (%s, %s)", rc.axis, *rc.slot, rc.co.Var)
				}
			}
		}
		if xvar == yvar {
			return fmt.Errorf("place: coordinate variable %q used as both column and row", xvar)
		}
	}

	for i := range ms {
		m := &ms[i]
		loc := &body[m.index].Loc
		m.dest, m.xlit, m.ylit = body[m.index].Dest, -1, -1
		m.xoff, m.yoff = int(loc.X.Off), int(loc.Y.Off)
		if len(ms) == 1 {
			// Singletons anchor at their own slot; literals filter the
			// domain directly and variables reduce to offsets.
			if loc.X.IsLiteral() {
				m.xlit, m.xoff = int(loc.X.Off), 0
			}
			if loc.X.Wild {
				m.xoff = 0
			}
			if loc.Y.IsLiteral() {
				m.ylit, m.yoff = int(loc.Y.Off), 0
			}
			if loc.Y.Wild {
				m.yoff = 0
			}
		}
		m.id = m.xoff*dev.Height + m.yoff
		if i == 0 {
			c.minX, c.maxX, c.minY, c.maxY = m.xoff, m.xoff, m.yoff, m.yoff
		}
		c.minX, c.maxX = min(c.minX, m.xoff), max(c.maxX, m.xoff)
		c.minY, c.maxY = min(c.minY, m.yoff), max(c.maxY, m.yoff)
	}
	if err := checkDistinct(ms); err != nil {
		return err
	}
	if c.maxX-c.minX >= dev.NumCols(c.prim) || c.maxY-c.minY >= dev.Height {
		return nil
	}
	lo, hi := ms[0].id, ms[0].id
	for _, m := range ms[1:] {
		lo, hi = min(lo, m.id), max(hi, m.id)
	}
	if lo == hi {
		c.foot = footprint{lo: lo, n: 1, bits: oneBit}
		return nil
	}
	c.foot = footprint{lo: lo, n: hi - lo + 1, bits: carve(words, hi-lo+1)}
	for _, m := range ms {
		d := m.id - lo
		c.foot.bits[d>>6] |= 1 << (d & 63)
	}
	return nil
}

// checkDistinct refuses a cluster two of whose members sit at the same
// offsets: the first member, in member order, whose offsets repeat an
// earlier member's is refused with that earlier member.
func checkDistinct(ms []member) error {
	if len(ms) < 2 {
		return nil
	}
	ord := make([]int, len(ms))
	for i := range ord {
		ord[i] = i
	}
	slices.SortFunc(ord, func(a, b int) int {
		return cmp.Or(cmp.Compare(ms[a].xoff, ms[b].xoff), cmp.Compare(ms[a].yoff, ms[b].yoff), cmp.Compare(a, b))
	})
	// Sorted by offsets, then member order: a run of equal offsets
	// repeats at its second member, and the refusal names the run whose
	// second member comes first.
	dup := -1
	for k := 1; k < len(ord); k++ {
		a, b := ms[ord[k-1]], ms[ord[k]]
		if a.xoff == b.xoff && a.yoff == b.yoff && (k == 1 || ms[ord[k-2]].xoff != a.xoff || ms[ord[k-2]].yoff != a.yoff) &&
			(dup < 0 || ord[k] < ord[dup]) {
			dup = k
		}
	}
	if dup < 0 {
		return nil
	}
	return sameSlice(ms[ord[dup-1]], ms[ord[dup]])
}

func sameSlice(prev, m member) error {
	return fmt.Errorf("place: %s and %s are constrained to the same slice", prev.dest, m.dest)
}

// solve runs one CSP over every cluster under the given per-primitive
// bounds, returning the anchor slice id chosen for each cluster.
// interrupt (nil = never) is polled mid-search so deadlines abort long
// solves promptly.
func solve(clusters []*cluster, dev *device.Device, bounds map[ir.Resource][2]int, maxSteps int, interrupt func() bool, sc *scratch) ([]int, int, error) {
	sol, st, err := solveSubset(clusters, nil, dev, bounds, maxSteps, interrupt, nil, sc)
	return sol, st.steps, err
}

// scratch is what the solves of one placement recycle: the solver's
// buffers, and the slab the difference sets are carved from.
type scratch struct {
	csp   csp.Scratch
	words []uint64
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
// and difference sets across probe solves.
func solveSubset(clusters []*cluster, subset []int, dev *device.Device, bounds map[ir.Resource][2]int, maxSteps int, interrupt func() bool, prev []int, sc *scratch) ([]int, solveStats, error) {
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
	var words []uint64
	if sc != nil {
		words = sc.words[:0]
	}
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
			d := diff(mc, oc, &words)
			p.AddBinary(vars[mi], vars[cj], func(av, bv int) bool { return !d.has(bv - av) })
		}
	}
	var cs *csp.Scratch
	if sc != nil {
		sc.words, cs = words, &sc.csp
	}
	sol, err := p.SolveScratch(cs)
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
	var words []uint64
	for i, a := range clusters {
		for j := i + 1; j < len(clusters); j++ {
			b := clusters[j]
			if a.prim != b.prim {
				continue
			}
			if diff(a, b, &words).has(sol[j] - sol[i]) {
				return false
			}
			words = words[:0]
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

// footprint is a set of slice-id offsets: a bitmap over [lo, lo+n).
type footprint struct {
	lo, n int
	bits  []uint64
}

// oneBit backs every one-element footprint; nothing writes to it.
var oneBit = []uint64{1}

func (s footprint) has(d int) bool {
	d -= s.lo
	return uint(d) < uint(s.n) && s.bits[d>>6]&(1<<(d&63)) != 0
}

// carve returns the zeroed words of an n-bit set from the slab *words.
func carve(words *[]uint64, n int) []uint64 {
	w := (n + 63) >> 6
	s := slices.Grow(*words, w)
	bits := s[len(s) : len(s)+w : len(s)+w]
	clear(bits)
	*words = s[:len(s)+w]
	return bits
}

// diff returns the difference set D_ab = {id(ma) − id(mb)} of two
// clusters: anchored at slice ids av and bv they share a slice exactly
// when bv − av ∈ D_ab. Slice ids are x·height + y, and every member of a
// cluster at an anchor of its domain lies on the device, where that map
// is one-to-one; so this is the member-pair test in one lookup. For a
// singleton b the set is a's footprint shifted, and shares its bits;
// otherwise the set is carved from *words.
func diff(a, b *cluster, words *[]uint64) footprint {
	if a.foot.n == 0 || b.foot.n == 0 {
		return footprint{}
	}
	if b.foot.n == 1 {
		return footprint{lo: a.foot.lo - b.foot.lo, n: a.foot.n, bits: a.foot.bits}
	}
	// D_ab is the union over b's members of a's footprint shifted down by
	// id(mb): one shifted OR of a's words per member of b.
	d := footprint{lo: a.foot.lo - (b.foot.lo + b.foot.n - 1), n: a.foot.n + b.foot.n - 1}
	d.bits = carve(words, d.n)
	for _, mb := range b.members {
		off := a.foot.lo - mb.id - d.lo
		w, sh := off>>6, uint(off&63)
		for j, x := range a.foot.bits {
			d.bits[j+w] |= x << sh
			if sh != 0 && j+w+1 < len(d.bits) {
				d.bits[j+w+1] |= x >> (64 - sh)
			}
		}
	}
	return d
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
