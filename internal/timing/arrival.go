package timing

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
// slice handed to Arrivals.
type Node struct {
	Name string
	Kind Kind
	// Placed says the node sits in a slice the device has: column X,
	// counted across the whole device (device.GlobalX), row Y. A wire
	// sits nowhere.
	Placed  bool
	X, Y    int
	DelayNs float64
	Args    []Arg
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
// wiring. pred[i] is the node the worst path into node i arrives from, or
// -1 where it starts — there, or at a function input. The links can cross
// a register back into its own input cone (feedback), so a walk along
// them must stop at the first node it meets twice.
func Arrivals(nodes []Node, outputs []int, opts Options) (worstNs float64, end int, pred []int, err error) {
	w := walk{
		nodes: nodes,
		opts:  opts,
		at:    make([]float64, len(nodes)),
		state: make([]uint8, len(nodes)),
		pred:  make([]int, len(nodes)),
	}
	for i := range w.pred {
		w.pred[i] = -1
	}
	end = -1
	consider := func(ns float64, at int) {
		if ns > worstNs {
			worstNs = ns
			end = at
		}
	}
	for i := range nodes {
		if nodes[i].Kind != Register {
			continue
		}
		at, err := w.worstArg(i, true)
		if err != nil {
			return 0, -1, nil, err
		}
		consider(at+nodes[i].DelayNs+opts.SetupNs, i)
	}
	for _, o := range outputs {
		at, err := w.value(o)
		if err != nil {
			return 0, -1, nil, err
		}
		consider(at, o)
	}
	if worstNs <= 0 {
		worstNs = opts.ClkToQNs + opts.SetupNs // pure wiring design
	}
	return worstNs, end, w.pred, nil
}

type walk struct {
	nodes []Node
	opts  Options
	at    []float64 // when a node's output is stable after a clock edge
	state []uint8   // 0 new, 1 visiting, 2 done
	pred  []int
}

func (w *walk) value(i int) (float64, error) {
	if i < 0 {
		return 0, nil
	}
	switch w.state[i] {
	case 2:
		return w.at[i], nil
	case 1:
		return 0, &CycleError{Name: w.nodes[i].Name}
	}
	w.state[i] = 1
	at := w.opts.ClkToQNs
	if kind := w.nodes[i].Kind; kind != Register {
		var err error
		if at, err = w.worstArg(i, kind == Logic); err != nil {
			return 0, err
		}
		if kind == Logic {
			at += w.nodes[i].DelayNs
		}
	}
	w.at[i] = at
	w.state[i] = 2
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
			worst = at
			w.pred[i] = a.Node
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
	switch {
	case from < 0:
		return w.opts.RouteBaseNs
	case a.Cascade:
		return w.opts.CascadeNs
	case !w.nodes[from].Placed || !to.Placed:
		return w.opts.RouteBaseNs
	}
	src := &w.nodes[from]
	dist := max(src.X-to.X, to.X-src.X) + max(src.Y-to.Y, to.Y-src.Y)
	return w.opts.RouteBaseNs + float64(dist)*w.opts.RoutePerHopNs
}
