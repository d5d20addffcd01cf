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
	nodes := make([]timing.Node, len(net.Cells))
	for i, c := range net.Cells {
		n := &nodes[i]
		n.Name, n.DelayNs = c.Name, c.DelayNs
		switch {
		case c.Stateful:
			n.Kind = timing.Register
		case c.Kind == CellWire:
			n.Kind = timing.Wire
		}
		if c.Kind != CellWire {
			x, y := dev.SliceCoords(c.Slot)
			n.Site = timing.Site{Prim: c.Prim, X: x, Y: y}
		}
		n.Args = make([]timing.Arg, len(c.Args))
		for k, a := range c.Args {
			n.Args[k] = timing.Arg{Node: a, Cascade: a >= 0 && c.CascadeWith >= 0 && resolveWire(net, a) == c.CascadeWith}
		}
	}
	worst, _, err := timing.Arrivals(nodes, net.Outputs, dev, opts)
	if err != nil {
		return 0, fmt.Errorf("vivado: %w", err)
	}
	return worst, nil
}
