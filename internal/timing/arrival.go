package timing

import (
	"reticle/internal/device"
	"reticle/internal/ir"
)

// Kind says what a node of the timing graph does with the arrival times
// of its arguments.
type Kind uint8

const (
	// Logic is combinational: its output is stable DelayNs after its
	// slowest routed argument.
	Logic Kind = iota
	// Register cuts paths. Its output is stable ClkToQNs after the clock
	// edge; a path ends at its input, DelayNs and then SetupNs after its
	// slowest routed argument.
	Register
	// Wire is pure routing and occupies no slice: it passes its slowest
	// argument on and leaves the route cost to whoever consumes it.
	Wire
)

// Site is a placed slice: a resource kind and a coordinate within it.
type Site struct {
	Prim ir.Resource
	X, Y int
}

// Arg is one net into a node.
type Arg struct {
	// Node indexes the producer, or is -1 for a function input, which is
	// registered at the boundary.
	Node int
	// Cascade marks a net that runs over the column's dedicated cascade
	// route (§5.2) instead of the general fabric. It sits on the net, not
	// on the node: both flows grant it to every argument that comes from
	// the cascade predecessor.
	Cascade bool
}

// Node is one value of a placed design, addressed by its index in the
// slice handed to Arrivals. Site is read only where Kind is not Wire.
type Node struct {
	Name    string
	Kind    Kind
	DelayNs float64
	Args    []Arg
	Site    Site
	// Pred is set by Arrivals: the node the worst path into this one
	// arrives from, or -1 where it starts — here, or at a function input.
	// Links can cross a register back into its own input cone (feedback),
	// so a walk along them stops at the first node it meets twice.
	Pred int

	at    float64 // set by Arrivals: when the output is stable after a clock edge
	state uint8   // 0 new, 1 visiting, 2 done
}

// CycleError reports a combinational cycle: a path from the named node
// back to itself that crosses no register.
type CycleError struct{ Name string }

func (e *CycleError) Error() string { return "combinational cycle through " + e.Name }

// Arrivals is the delay model, for both flows the evaluation compares:
// Analyze feeds it placed Reticle assembly and vivado.AnalyzeNetlist the
// baseline's placed netlist, so the two run times can differ in design
// quality only. Paths start at function inputs and register outputs and
// end at register inputs and at the nodes listed in outputs. It returns
// the critical path — the latest any path end settles after a clock edge —
// and the node it ends at, -1 for a design whose every path is pure
// wiring; the path itself is left in the nodes' Pred links.
func Arrivals(nodes []Node, outputs []int, dev *device.Device, opts Options) (worstNs float64, end int, err error) {
	w := walk{nodes, dev, opts}
	for i := range nodes {
		nodes[i].Pred, nodes[i].state = -1, 0
	}
	end = -1
	consider := func(ns float64, at int) {
		if ns > worstNs {
			worstNs, end = ns, at
		}
	}
	for i := range nodes {
		if nodes[i].Kind != Register {
			continue
		}
		at, err := w.worstArg(i, true)
		if err != nil {
			return 0, -1, err
		}
		consider(at+nodes[i].DelayNs+opts.SetupNs, i)
	}
	for _, o := range outputs {
		at, err := w.value(o)
		if err != nil {
			return 0, -1, err
		}
		consider(at, o)
	}
	if worstNs <= 0 {
		worstNs = opts.ClkToQNs + opts.SetupNs // pure wiring design
	}
	return worstNs, end, nil
}

type walk struct {
	nodes []Node
	dev   *device.Device
	opts  Options
}

func (w *walk) value(i int) (float64, error) {
	if i < 0 {
		return 0, nil
	}
	n := &w.nodes[i]
	switch n.state {
	case 2:
		return n.at, nil
	case 1:
		return 0, &CycleError{Name: n.Name}
	}
	n.state = 1
	at := w.opts.ClkToQNs
	if n.Kind != Register {
		var err error
		if at, err = w.worstArg(i, n.Kind == Logic); err != nil {
			return 0, err
		}
		if n.Kind == Logic {
			at += n.DelayNs
		}
	}
	n.at, n.state = at, 2
	return at, nil
}

// worstArg is the latest arrival over node i's arguments, with the route
// into i added when routed. Of equally late arguments the last one is
// recorded as the predecessor.
func (w *walk) worstArg(i int, routed bool) (float64, error) {
	worst := 0.0
	for _, a := range w.nodes[i].Args {
		at, err := w.value(a.Node)
		if err != nil {
			return 0, err
		}
		if routed {
			at += w.routeNs(a, &w.nodes[i])
		}
		if at >= worst {
			worst, w.nodes[i].Pred = at, a.Node
		}
	}
	return worst, nil
}

// routeNs is the delay of net a into node to. A net physically starts at
// the slice of the first node that is not a wire, looking back through
// first arguments; one that starts at a port or a constant pays the base
// cost only.
func (w *walk) routeNs(a Arg, to *Node) float64 {
	from := a.Node
	for seen := 0; from >= 0 && w.nodes[from].Kind == Wire; seen++ {
		if args := w.nodes[from].Args; len(args) > 0 && seen <= len(w.nodes) {
			from = args[0].Node
		} else {
			from = -1
		}
	}
	if from < 0 {
		return w.opts.RouteBaseNs
	}
	if a.Cascade {
		return w.opts.CascadeNs
	}
	src := w.nodes[from].Site
	gxFrom, errFrom := w.dev.GlobalX(src.Prim, src.X)
	gxTo, errTo := w.dev.GlobalX(to.Site.Prim, to.Site.X)
	if errFrom != nil || errTo != nil {
		return w.opts.RouteBaseNs
	}
	dist := max(gxFrom-gxTo, gxTo-gxFrom) + max(src.Y-to.Site.Y, to.Site.Y-src.Y)
	return w.opts.RouteBaseNs + float64(dist)*w.opts.RoutePerHopNs
}
