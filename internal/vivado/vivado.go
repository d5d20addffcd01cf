package vivado

import (
	"time"

	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/timing"
)

// Options configures a baseline compile.
type Options struct {
	// Hint enables the "(* use_dsp *)" baseline: DSP inference for adders
	// plus fused multiply-add and cascading (§7's hint configuration).
	Hint bool
	// Anneal tunes the placement schedule; zero value means defaults.
	Anneal AnnealOptions
}

// Result is a completed baseline compile.
type Result struct {
	Net        *Netlist
	CriticalNs float64
	FMaxMHz    float64
	LutsUsed   int
	DspsUsed   int
	// SynthDur and PlaceDur are measured wall-clock stage times; the
	// evaluation's compile-time comparisons use their sum.
	SynthDur time.Duration
	PlaceDur time.Duration
	Moves    int
}

// Compile runs the full baseline toolchain on a behavioral program:
// synthesis (DSP inference, LUT mapping, logic optimization), placement
// (simulated annealing), and static timing.
func Compile(f *ir.Func, dev *device.Device, opts Options) (*Result, error) {
	t0 := time.Now()
	net, err := Synthesize(f, dev, opts.Hint)
	if err != nil {
		return nil, err
	}
	synthDur := time.Since(t0)

	t1 := time.Now()
	moves, err := PlaceNetlist(net, dev, opts.Anneal)
	if err != nil {
		return nil, err
	}
	placeDur := time.Since(t1)

	crit, err := AnalyzeNetlist(net, dev, timing.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &Result{
		Net:        net,
		CriticalNs: crit,
		FMaxMHz:    1000.0 / crit,
		LutsUsed:   net.LutsUsed,
		DspsUsed:   net.DspsUsed,
		SynthDur:   synthDur,
		PlaceDur:   placeDur,
		Moves:      moves,
	}, nil
}
