package vivado

import (
	"fmt"

	"reticle/internal/device"
	"reticle/internal/timing"
)

// AnalyzeNetlist computes the placed netlist's critical path with the
// Reticle side's own walker (timing.Arrivals), so run-time comparisons
// between the two toolchains measure design quality, not model skew. A
// node is a cell, found by id; its slice comes from its placement slot;
// a net is a cascade route when it starts at the cell's CascadeWith.
func AnalyzeNetlist(net *Netlist, dev *device.Device, opts timing.Options) (float64, error) {
	if opts.UnitNs == 0 {
		opts = timing.DefaultOptions()
	}
	nets := 0
	for _, c := range net.Cells {
		nets += len(c.Args)
	}
	args := make([]timing.Arg, 0, nets) // every node's Args is a stretch of it
	nodes := make([]timing.Node, len(net.Cells))
	for i, c := range net.Cells {
		n := &nodes[i]
		if c.dead {
			// Optimized away: synth rewires every reader before it kills
			// a cell, so this node is unreachable, and it ends no path.
			n.Kind = timing.Wire
			continue
		}
		n.Name = c.Name
		n.DelayNs = c.DelayNs
		switch {
		case c.Stateful:
			n.Kind = timing.Register
		case c.Kind == CellWire:
			n.Kind = timing.Wire
		}
		if c.Kind != CellWire {
			x, y := dev.SliceCoords(c.Slot)
			if gx, err := dev.GlobalX(c.Prim, x); err == nil {
				n.Placed = true
				n.X = gx
				n.Y = y
			}
		}
		for _, a := range c.Args {
			args = append(args, timing.Arg{Node: a, Cascade: a >= 0 && c.CascadeWith >= 0 && resolveWire(net, a) == c.CascadeWith})
		}
		n.Args = args[len(args)-len(c.Args):]
	}
	worst, _, _, err := timing.Arrivals(nodes, net.Outputs, opts)
	if err != nil {
		return 0, fmt.Errorf("vivado: %w", err)
	}
	return worst, nil
}
