// Package vivado simulates a traditional behavioral-HDL FPGA toolchain —
// the paper's baseline (Vivado 2020.1). It is a faithful stand-in, not a
// stub: it runs the same decision procedures the paper attributes to such
// tools and exhibits their documented behaviors:
//
//   - heuristic DSP inference with a cost model; "use_dsp" hints are soft
//     suggestions that silently fall back to LUTs when DSPs run out (§2);
//   - no vectorization: behavioral code maps one operation per DSP, never
//     the SIMD configurations (§7.2);
//   - bit-level logic optimization (LUT packing) that Reticle's per-op
//     mapping lacks, which is why the baseline wins on control logic (§7.2);
//   - fused multiply-add and DSP cascading, but only under hints (§7.2);
//   - placement by simulated annealing — the slow, randomized metaheuristic
//     responsible for the compile-time gap (§1, §5.1).
//
// See DESIGN.md for the substitution argument.
package vivado

import (
	"fmt"

	"reticle/internal/ir"
)

// CellKind classifies netlist cells.
type CellKind uint8

// Cell kinds.
const (
	// CellWire is zero-delay wiring (constants, slices, shifts, aliases).
	CellWire CellKind = iota
	// CellLut is a cone of LUTs (one per bit), possibly with a carry chain.
	CellLut
	// CellFF is a bank of flip-flops.
	CellFF
	// CellDsp is a configured DSP slice (possibly with internal register).
	CellDsp
)

func (k CellKind) String() string {
	switch k {
	case CellWire:
		return "wire"
	case CellLut:
		return "lut"
	case CellFF:
		return "ff"
	case CellDsp:
		return "dsp"
	default:
		return fmt.Sprintf("vivado.CellKind(%d)", uint8(k))
	}
}

// Cell is one synthesized netlist element.
type Cell struct {
	ID   int
	Kind CellKind
	Name string // derived from the defining IR value
	// Args are producing cell IDs, or -1 for function inputs.
	Args []int

	// Width is the datapath width in bits.
	Width int
	// Luts is the cell's LUT consumption (utilization reporting).
	Luts int
	// InPerBit is the per-bit fan-in of a packable logic cone.
	InPerBit int
	// Packable marks simple logic cells eligible for LUT packing.
	Packable bool
	// DelayNs is the intrinsic combinational delay.
	DelayNs float64
	// Stateful cells (FFs, registered DSPs) cut timing paths.
	Stateful bool
	// CascadeWith, when >= 0, names the producer cell whose result arrives
	// over a dedicated DSP cascade route (hint-mode chains).
	CascadeWith int

	// Slot is the placement result: a slice id within the cell's resource.
	Slot int
	// Prim is the resource the cell occupies (lut column or dsp column);
	// wire cells occupy nothing.
	Prim ir.Resource

	dead bool // removed by packing
}

// Netlist is the synthesized design.
type Netlist struct {
	Cells []*Cell
	// Outputs are cell IDs whose values drive function outputs.
	Outputs []int
	// DspsUsed and LutsUsed summarize utilization after optimization.
	DspsUsed int
	LutsUsed int
}

// LiveCells returns the cells surviving optimization, in id order.
func (n *Netlist) LiveCells() []*Cell {
	var out []*Cell
	for _, c := range n.Cells {
		if !c.dead {
			out = append(out, c)
		}
	}
	return out
}

// recount refreshes the utilization summary.
func (n *Netlist) recount() {
	n.DspsUsed, n.LutsUsed = 0, 0
	for _, c := range n.Cells {
		if c.dead {
			continue
		}
		switch c.Kind {
		case CellDsp:
			n.DspsUsed++
		case CellLut:
			n.LutsUsed += c.Luts
		}
	}
}
