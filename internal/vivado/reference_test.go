package vivado

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"reticle/internal/bench"
	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
	"reticle/internal/timing"
)

// netSTA below is this package's static timing walker as it stood before
// AnalyzeNetlist became an adapter over timing.Arrivals, verbatim: its own
// copy of the route model, at+(delay+setup) where the Reticle side adds
// left to right. It stays as the reference the differential test
// compares against.

// referenceAnalyzeNetlist is AnalyzeNetlist as it stood before the shared
// walker.
func referenceAnalyzeNetlist(net *Netlist, dev *device.Device, opts timing.Options) (float64, error) {
	if opts.UnitNs == 0 {
		opts = timing.DefaultOptions()
	}
	a := &netSTA{net: net, dev: dev, opts: opts,
		arrival: make([]float64, len(net.Cells)),
		state:   make([]uint8, len(net.Cells)),
	}
	worst := 0.0
	for _, c := range net.LiveCells() {
		if !c.Stateful {
			continue
		}
		at, err := a.inputArrival(c)
		if err != nil {
			return 0, err
		}
		at += c.DelayNs + opts.SetupNs
		if at > worst {
			worst = at
		}
	}
	for _, o := range net.Outputs {
		at, err := a.valueArrival(o)
		if err != nil {
			return 0, err
		}
		if at > worst {
			worst = at
		}
	}
	if worst <= 0 {
		worst = opts.ClkToQNs + opts.SetupNs
	}
	return worst, nil
}

type netSTA struct {
	net     *Netlist
	dev     *device.Device
	opts    timing.Options
	arrival []float64
	state   []uint8 // 0 new, 1 visiting, 2 done
}

func (a *netSTA) valueArrival(id int) (float64, error) {
	if id < 0 {
		return 0, nil // input port, registered at the boundary
	}
	c := a.net.Cells[id]
	switch a.state[id] {
	case 2:
		return a.arrival[id], nil
	case 1:
		return 0, fmt.Errorf("vivado: combinational cycle through %s", c.Name)
	}
	a.state[id] = 1
	var at float64
	var err error
	switch {
	case c.Stateful:
		at = a.opts.ClkToQNs
	case c.Kind == CellWire:
		for _, arg := range c.Args {
			v, err := a.valueArrival(arg)
			if err != nil {
				return 0, err
			}
			if v > at {
				at = v
			}
		}
	default:
		at, err = a.inputArrival(c)
		if err != nil {
			return 0, err
		}
		at += c.DelayNs
	}
	a.arrival[id] = at
	a.state[id] = 2
	return at, nil
}

func (a *netSTA) inputArrival(c *Cell) (float64, error) {
	worst := 0.0
	for _, arg := range c.Args {
		at, err := a.valueArrival(arg)
		if err != nil {
			return 0, err
		}
		at += a.routeNs(arg, c)
		if at > worst {
			worst = at
		}
	}
	return worst, nil
}

func (a *netSTA) routeNs(arg int, c *Cell) float64 {
	if arg < 0 {
		return a.opts.RouteBaseNs
	}
	pid := resolveWire(a.net, arg)
	p := a.net.Cells[pid]
	if p.Kind == CellWire {
		return a.opts.RouteBaseNs
	}
	if c.CascadeWith == pid {
		return a.opts.CascadeNs
	}
	px, py := a.dev.SliceCoords(p.Slot)
	cx, cy := a.dev.SliceCoords(c.Slot)
	gp, errP := a.dev.GlobalX(p.Prim, px)
	gc, errC := a.dev.GlobalX(c.Prim, cx)
	if errP != nil || errC != nil {
		return a.opts.RouteBaseNs
	}
	dist := iabs(gp-gc) + iabs(py-cy)
	return a.opts.RouteBaseNs + float64(dist)*a.opts.RoutePerHopNs
}

func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestAnalyzeNetlistMatchesReference: over every bundled example, the
// paper's benchmark kernels and 500 generated programs, on both families'
// devices, with and without hints, the adapter over the shared walker
// agrees with the reference walker to 1e-9 relative (the two associate
// one sum differently) and in every digit EXPERIMENTS.md prints.
func TestAnalyzeNetlistMatchesReference(t *testing.T) {
	programs := 500
	if testing.Short() {
		programs = 60
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.ret"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled examples: %v", err)
	}
	var funcs []*ir.Func
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		funcs = append(funcs, f)
	}
	for _, build := range []func() (*ir.Func, error){
		func() (*ir.Func, error) { return bench.TensorDot(3, 6) },
		func() (*ir.Func, error) { return bench.TensorAdd(16) },
		func() (*ir.Func, error) { return bench.FSM(5) },
	} {
		f, err := build()
		if err != nil {
			t.Fatal(err)
		}
		funcs = append(funcs, f)
	}
	for seed := 0; seed < programs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		funcs = append(funcs, irgen.Generate(rng, irgen.Config{Instrs: 6 + seed%40, WithVectors: seed%2 == 0}))
	}
	for _, dev := range []*device.Device{ultrascale.Device(), agilex.Device()} {
		for _, hint := range []bool{false, true} {
			compared := 0
			for _, f := range funcs {
				net, err := Synthesize(f, dev, hint)
				if err != nil {
					continue // not every generated program fits the baseline's subset
				}
				if _, err := PlaceNetlist(net, dev, fastAnneal()); err != nil {
					continue
				}
				got, err := AnalyzeNetlist(net, dev, timing.DefaultOptions())
				if err != nil {
					t.Fatalf("%s hint=%v %s: %v", dev.Name, hint, f.Name, err)
				}
				want, err := referenceAnalyzeNetlist(net, dev, timing.DefaultOptions())
				if err != nil {
					t.Fatalf("%s hint=%v %s: reference: %v", dev.Name, hint, f.Name, err)
				}
				if math.Abs(got-want) > 1e-9*want || fmt.Sprintf("%.3f", got) != fmt.Sprintf("%.3f", want) {
					t.Fatalf("%s hint=%v %s: got %v ns, reference %v ns", dev.Name, hint, f.Name, got, want)
				}
				compared++
			}
			if compared < len(funcs)*9/10 {
				t.Errorf("%s hint=%v: only %d of %d programs went through the baseline", dev.Name, hint, compared, len(funcs))
			}
		}
	}
}

// TestNetlistCycleIsAnError: Synthesize rejects a combinational cycle, so
// one is wired by hand; the shared walker reports it as a
// *timing.CycleError naming the cell, under the reference's message.
func TestNetlistCycleIsAnError(t *testing.T) {
	net := mustSynth(t, `
def f(a:i8, b:i8) -> (y:i8) {
    t0:i8 = add(a, b) @??;
    y:i8 = add(t0, b) @??;
}`, smallDev(t), false)
	out := net.Outputs[0]
	first := net.Cells[out].Args[0]
	if first < 0 || net.Cells[first].Kind == CellWire {
		t.Fatalf("unexpected netlist shape: output cell args %v", net.Cells[out].Args)
	}
	net.Cells[first].Args[0] = out
	_, err := AnalyzeNetlist(net, smallDev(t), timing.DefaultOptions())
	var cycle *timing.CycleError
	if !errors.As(err, &cycle) || (cycle.Name != net.Cells[out].Name && cycle.Name != net.Cells[first].Name) {
		t.Fatalf("AnalyzeNetlist on a combinational cycle: %v", err)
	}
	_, want := referenceAnalyzeNetlist(net, smallDev(t), timing.DefaultOptions())
	if want == nil || err.Error() != want.Error() {
		t.Errorf("AnalyzeNetlist: %v, reference: %v", err, want)
	}
}

// TestDeadRegisterEndsNoPath: a cell optimization removed is not a path
// end, stateful or not. Today's synth never kills a stateful cell, so one
// is killed by hand, behind the slowest cone of the design.
func TestDeadRegisterEndsNoPath(t *testing.T) {
	dev := smallDev(t)
	net := mustSynth(t, `
def f(a:i8, b:i8, en:bool) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = mul(t0, b) @??;
    r:i8 = reg[0](t1, en) @??;
    y:i8 = add(a, b) @??;
}`, dev, false)
	if _, err := PlaceNetlist(net, dev, fastAnneal()); err != nil {
		t.Fatal(err)
	}
	alive, err := AnalyzeNetlist(net, dev, timing.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	killed := 0
	for _, c := range net.Cells {
		if c.Stateful {
			c.dead = true
			killed++
		}
	}
	got, err := AnalyzeNetlist(net, dev, timing.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceAnalyzeNetlist(net, dev, timing.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if killed == 0 || got != want || got >= alive {
		t.Errorf("%d registers killed: %v ns, reference %v ns, %v ns with them alive", killed, got, want, alive)
	}
}
