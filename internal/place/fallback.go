// Greedy first-fit fallback placement: the graceful-degradation path
// engaged when the CSP solver exhausts its step or time budget (§5.3's
// optimal search traded for a cheap valid answer, the same escape hatch
// scaled technology mappers rely on when the optimal engine blows its
// budget). The result is valid — every constraint checked by Verify —
// but makes no attempt at compaction or cascade-friendly packing.

package place

import (
	"fmt"
	"sort"

	"reticle/internal/asm"
	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/rerr"
)

// degradeOrFail runs the greedy fallback (unless Options.NoFallback),
// marks the result Degraded with the reason, and verifies it before
// returning. cause is the budget-exhaustion error being degraded around.
func degradeOrFail(f *asm.Func, dev *device.Device, clusters []*cluster,
	bounds map[ir.Resource][2]int, opts Options, reason string, cause error) (*Result, error) {
	if opts.NoFallback {
		return nil, rerr.Wrap(rerr.Exhausted, "solver_budget",
			"placement solver budget exhausted", cause)
	}
	sol, err := greedySolve(clusters, dev, bounds)
	if err != nil {
		return nil, rerr.Wrap(rerr.Exhausted, "placement_fallback_failed",
			"placement failed even under the greedy fallback", err)
	}
	res := writeBack(f, dev, clusters, sol)
	res.Degraded = true
	res.DegradedReason = reason
	// The degradation contract: a fallback placement is served only
	// after passing the full constraint check — never a silent wrong
	// answer.
	if err := Verify(f, res.Fn, dev); err != nil {
		return nil, rerr.Wrap(rerr.Permanent, "placement_fallback_invalid",
			"greedy fallback produced an invalid placement", err)
	}
	return res, nil
}

// greedySolve assigns each cluster the first feasible anchor, largest
// clusters first (rigid macros are the hardest to seat, so they go
// before singletons fragment the free space). Deterministic: ties break
// on cluster build order, anchors are probed in domain order.
func greedySolve(clusters []*cluster, dev *device.Device, bounds map[ir.Resource][2]int) ([]int, error) {
	order := make([]int, len(clusters))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(clusters[order[a]].members) > len(clusters[order[b]].members)
	})

	occupied := map[ir.Resource]map[[2]int]bool{}
	domains := map[shape][]int{} // one anchor list per cluster shape
	sol := make([]int, len(clusters))
	for _, ci := range order {
		c := clusters[ci]
		taken := occupied[c.prim]
		if taken == nil {
			taken = map[[2]int]bool{}
			occupied[c.prim] = taken
		}
		sh := c.shape()
		dom, ok := domains[sh]
		if !ok {
			dom = anchorDomain(dev, sh, bounds[c.prim])
			domains[sh] = dom
		}
		placed := false
		for _, anchor := range dom {
			ax, ay := dev.SliceCoords(anchor)
			free := true
			for _, m := range c.members {
				if taken[[2]int{ax + m.xoff, ay + m.yoff}] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			for _, m := range c.members {
				taken[[2]int{ax + m.xoff, ay + m.yoff}] = true
			}
			sol[ci] = anchor
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf("greedy fallback: no free anchor for cluster at %s (%d members on %s)",
				c.members[0].dest, len(c.members), c.prim)
		}
	}
	return sol, nil
}
