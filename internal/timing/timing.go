// Package timing is a static timing analyzer for placed assembly programs.
// It computes the design's critical path — the paper's "run-time" metric:
// "a running time is the critical path of the hardware circuit, which
// determines the maximum clock frequency" (§7.2).
//
// The model substitutes for measurement on a physical FPGA (see DESIGN.md):
// each primitive contributes a combinational logic delay derived from its
// TDL latency cost, and each net contributes a routing delay that grows
// with the Manhattan distance between the placed slices. Producer/consumer
// pairs rewritten by the cascade optimization and placed adjacently use the
// column's high-speed cascade route instead (§5.2). Absolute nanoseconds
// are calibrated to UltraScale+ ratios; the figures compare ratios only.
package timing

import (
	"fmt"
	"slices"
	"strings"

	"reticle/internal/asm"
	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/tdl"
)

// Options are the delay-model constants, in nanoseconds.
type Options struct {
	// UnitNs converts TDL latency units (tenths of ns) to ns.
	UnitNs float64
	// RouteBaseNs is the fixed cost of any general-fabric net.
	RouteBaseNs float64
	// RoutePerHopNs is the per-Manhattan-unit cost of a net.
	RoutePerHopNs float64
	// CascadeNs is the cost of a dedicated cascade route.
	CascadeNs float64
	// ClkToQNs and SetupNs model register timing.
	ClkToQNs float64
	SetupNs  float64
}

// DefaultOptions returns the calibrated constants.
func DefaultOptions() Options {
	return Options{
		UnitNs:        0.1,
		RouteBaseNs:   0.25,
		RoutePerHopNs: 0.012,
		CascadeNs:     0.02,
		ClkToQNs:      0.08,
		SetupNs:       0.05,
	}
}

// Report is the analysis result.
type Report struct {
	CriticalNs float64
	FMaxMHz    float64
	// Path lists the instruction destinations along the critical path,
	// source first.
	Path []string
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("critical path %.3f ns (%.1f MHz) via %s",
		r.CriticalNs, r.FMaxMHz, strings.Join(r.Path, " -> "))
}

// Analyzer is Analyze with its nodes and nets kept between calls.
// Timing-driven refinement analyzes one function about a hundred times per
// compile, a location apart each time, and allocating them afresh reads
// +38 % B/op on it (BenchmarkAblationTimingDriven/refined) however lean a
// Node is. The zero value is ready; one Analyzer serves one goroutine, and
// whoever holds it decides how long the tables live.
type Analyzer struct {
	nodes []Node
	args  []Arg
}

// Analyze computes the critical path of a placed assembly function.
func Analyze(f *asm.Func, target *tdl.Target, dev *device.Device, opts Options) (Report, error) {
	syms, err := asm.Resolve(f, target)
	if err != nil {
		return Report{}, err
	}
	return new(Analyzer).Analyze(f, syms, target, dev, opts)
}

// Analyze is timing.Analyze on a program already checked against target,
// syms being the symbol table that check built. It lays the body out as
// the node slice Arrivals walks — one node per instruction, found through
// the symbol table — and names the worst path.
func (t *Analyzer) Analyze(f *asm.Func, syms ir.Symbols, target *tdl.Target, dev *device.Device, opts Options) (Report, error) {
	if opts.UnitNs == 0 {
		opts = DefaultOptions()
	}
	if !f.Resolved() {
		return Report{}, fmt.Errorf("timing: function %s has unresolved locations", f.Name)
	}
	// Node i is instruction i; the input ports follow, as wires from
	// nowhere, so that a path can name the port it starts at.
	nin, nbody := len(f.Inputs), len(f.Body)
	node := func(v int32) int {
		if int(v) < nin {
			return nbody + int(v)
		}
		return int(v) - nin
	}
	t.nodes = slices.Grow(t.nodes[:0], nbody+nin)[:nbody+nin]
	clear(t.nodes)
	nodes := t.nodes
	for i, p := range f.Inputs {
		nodes[nbody+i] = Node{Name: p.Name, Kind: Wire}
	}
	args := slices.Grow(t.args[:0], len(syms.Args)) // every node's Args is a stretch of it
	t.args = args
	refs := syms.Args
	for i := range f.Body {
		in := &f.Body[i]
		n := &nodes[i]
		n.Name = in.Dest
		// The §5.2 idiom after placement: a _co/_coci producer directly
		// below the _ci/_coci consumer it feeds, in the same column.
		readsCi := !in.IsWire() && (strings.HasSuffix(in.Name, "_ci") || strings.HasSuffix(in.Name, "_coci"))
		for _, v := range refs[:len(in.Args)] {
			from := node(v)
			cascade := false
			if readsCi && from < nbody && !f.Body[from].IsWire() {
				p := &f.Body[from]
				cascade = (strings.HasSuffix(p.Name, "_co") || strings.HasSuffix(p.Name, "_coci")) &&
					p.Loc.Prim == in.Loc.Prim && p.Loc.X.Off == in.Loc.X.Off && in.Loc.Y.Off == p.Loc.Y.Off+1
			}
			args = append(args, Arg{Node: from, Cascade: cascade})
		}
		refs = refs[len(in.Args):]
		n.Args = args[len(args)-len(in.Args):]
		if in.IsWire() {
			n.Kind = Wire
			continue
		}
		def, _ := target.Lookup(in.Name) // existence checked by Resolve
		if def.Stateful() {
			n.Kind = Register
		}
		n.DelayNs = float64(def.Latency) * opts.UnitNs
		if x, err := dev.GlobalX(in.Loc.Prim, int(in.Loc.X.Off)); err == nil {
			n.Placed = true
			n.X = x
			n.Y = int(in.Loc.Y.Off)
		}
	}
	outputs := make([]int, len(syms.Outputs))
	for i, v := range syms.Outputs {
		outputs[i] = node(v)
	}
	worst, end, pred, err := Arrivals(nodes, outputs, opts)
	if err != nil {
		return Report{}, fmt.Errorf("timing: %w", err)
	}
	rep := Report{CriticalNs: worst, FMaxMHz: 1000.0 / worst}
	// Name the path back from its end, unlinking each node as it is
	// named: a node met unlinked has been named already.
	const named = -2
	for i := end; i >= 0 && pred[i] != named; {
		rep.Path = append(rep.Path, nodes[i].Name)
		next := pred[i]
		pred[i] = named
		i = next
	}
	slices.Reverse(rep.Path)
	return rep, nil
}
