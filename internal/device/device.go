// Package device describes FPGA device layouts: the column arrangement of
// LUT and DSP slices that the placement stage targets (§5.3 of the paper).
//
// All modern FPGAs are constructed as columns of resources; a device is an
// ordered sequence of columns, each holding slices of one primitive kind.
// Assembly coordinates are per-primitive: @dsp(x, y) names row y of the
// x-th DSP column, independent of where that column sits on the die.
// GlobalX recovers the die position for distance-based timing.
package device

import (
	"fmt"

	"reticle/internal/ir"
)

// Column is one column of slices of a single primitive kind.
type Column struct {
	Prim ir.Resource
}

// Device is a concrete FPGA part: a named column arrangement with a uniform
// column height.
type Device struct {
	Name string
	// Height is the number of slices per column.
	Height int
	// LutsPerSlice is how many LUTs one LUT slice hosts (8 on
	// UltraScale-like parts).
	LutsPerSlice int

	cols []Column
	// byPrim[p] maps a per-prim column index to the global column index.
	// An array, not a map: NumCols/Capacity/SliceID sit on placement's
	// hottest paths, and hashing a one-byte key there was the top frame
	// of a LUT-class compile.
	byPrim [numPrims][]int
}

// numPrims sizes tables indexed by ir.Resource (ResDsp is the last kind).
const numPrims = int(ir.ResDsp) + 1

// colsOf lists the global columns of the given primitive kind (nil for a
// kind no column can hold).
func (d *Device) colsOf(p ir.Resource) []int {
	if int(p) >= numPrims {
		return nil
	}
	return d.byPrim[p]
}

// New builds a device from an explicit global column arrangement.
func New(name string, height, lutsPerSlice int, cols []Column) (*Device, error) {
	if height <= 0 {
		return nil, fmt.Errorf("device %s: height %d", name, height)
	}
	if lutsPerSlice <= 0 {
		return nil, fmt.Errorf("device %s: lutsPerSlice %d", name, lutsPerSlice)
	}
	d := &Device{
		Name:         name,
		Height:       height,
		LutsPerSlice: lutsPerSlice,
		cols:         append([]Column(nil), cols...),
	}
	for gi, c := range cols {
		if c.Prim != ir.ResLut && c.Prim != ir.ResDsp {
			return nil, fmt.Errorf("device %s: column %d has primitive %s", name, gi, c.Prim)
		}
		d.byPrim[c.Prim] = append(d.byPrim[c.Prim], gi)
	}
	return d, nil
}

// Standard builds a device with lutCols LUT columns and dspCols DSP columns
// interleaved evenly across the die, mimicking real fabrics where DSP
// columns are spread among logic columns.
func Standard(name string, lutCols, dspCols, height, lutsPerSlice int) (*Device, error) {
	total := lutCols + dspCols
	if total == 0 {
		return nil, fmt.Errorf("device %s: no columns", name)
	}
	cols := make([]Column, 0, total)
	placedDsp := 0
	for i := 0; i < total; i++ {
		// Spread DSP columns at evenly spaced global positions.
		wantDsp := (i+1)*dspCols/total > placedDsp
		if wantDsp && placedDsp < dspCols {
			cols = append(cols, Column{Prim: ir.ResDsp})
			placedDsp++
		} else {
			cols = append(cols, Column{Prim: ir.ResLut})
		}
	}
	return New(name, height, lutsPerSlice, cols)
}

// XCZU3EG returns an UltraScale+-like part modeled on the paper's target
// device: 360 DSP slices and ~71k LUTs (8880 LUT slices at 8 LUTs each).
// Columns are 120 slices tall: 74 LUT columns and 3 DSP columns.
func XCZU3EG() *Device {
	d, err := Standard("xczu3eg", 74, 3, 120, 8)
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return d
}

// NumCols returns the number of columns of the given primitive kind.
func (d *Device) NumCols(p ir.Resource) int { return len(d.colsOf(p)) }

// Capacity returns the total number of slices of the given kind.
func (d *Device) Capacity(p ir.Resource) int { return d.NumCols(p) * d.Height }

// LutCapacity returns the total number of LUTs on the device.
func (d *Device) LutCapacity() int { return d.Capacity(ir.ResLut) * d.LutsPerSlice }

// GlobalX maps a per-primitive column index to the global die column.
func (d *Device) GlobalX(p ir.Resource, x int) (int, error) {
	cols := d.colsOf(p)
	if x < 0 || x >= len(cols) {
		return 0, fmt.Errorf("device %s: %s column %d out of range [0,%d)",
			d.Name, p, x, len(cols))
	}
	return cols[x], nil
}

// SliceID flattens a per-primitive coordinate to a dense id in
// [0, Capacity(p)). Row-major within a column: id = x*Height + y.
func (d *Device) SliceID(p ir.Resource, x, y int) (int, error) {
	if x < 0 || x >= d.NumCols(p) {
		return 0, fmt.Errorf("device %s: %s x=%d out of range [0,%d)", d.Name, p, x, d.NumCols(p))
	}
	if y < 0 || y >= d.Height {
		return 0, fmt.Errorf("device %s: %s y=%d out of range [0,%d)", d.Name, p, y, d.Height)
	}
	return x*d.Height + y, nil
}

// SliceCoords inverts SliceID.
func (d *Device) SliceCoords(id int) (x, y int) {
	return id / d.Height, id % d.Height
}

// String describes the device.
func (d *Device) String() string {
	return fmt.Sprintf("%s: %d DSP slices, %d LUT slices (%d LUTs), %d columns × %d",
		d.Name, d.Capacity(ir.ResDsp), d.Capacity(ir.ResLut), d.LutCapacity(),
		len(d.cols), d.Height)
}
