package timing_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/bench"
	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/isel"
	"reticle/internal/pipeline"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
	"reticle/internal/tdl"
	"reticle/internal/timing"
)

// The analyzer below is internal/timing's walker as it stood before
// Analyze became an adapter over timing.Arrivals, verbatim apart from the
// package qualifier: four string-keyed maps and its own copy of the route
// model. It stays as the reference the differential test compares against.

type Report = timing.Report

// referenceAnalyze is Analyze as it stood before the shared walker.
func referenceAnalyze(f *asm.Func, target *tdl.Target, dev *device.Device, opts timing.Options) (Report, error) {
	if opts.UnitNs == 0 {
		opts = timing.DefaultOptions()
	}
	if err := asm.CheckTarget(f, target); err != nil {
		return Report{}, err
	}
	if !f.Resolved() {
		return Report{}, fmt.Errorf("timing: function %s has unresolved locations", f.Name)
	}
	a := &analyzer{
		f: f, target: target, dev: dev, opts: opts,
		byDest:  make(map[string]int),
		arrival: make(map[string]float64),
		pred:    make(map[string]string),
		state:   make(map[string]uint8),
	}
	for i, in := range f.Body {
		a.byDest[in.Dest] = i
	}
	return a.run()
}

type analyzer struct {
	f      *asm.Func
	target *tdl.Target
	dev    *device.Device
	opts   timing.Options

	byDest  map[string]int
	arrival map[string]float64 // output-arrival time of each value
	pred    map[string]string  // critical predecessor for path reconstruction
	state   map[string]uint8   // 0 new, 1 visiting, 2 done
}

func (a *analyzer) run() (Report, error) {
	var rep Report
	worst := 0.0
	var worstEnd string

	consider := func(ns float64, end string) {
		if ns > worst {
			worst = ns
			worstEnd = end
		}
	}

	// Paths ending at register inputs.
	for _, in := range a.f.Body {
		if in.IsWire() {
			continue
		}
		def, _ := a.target.Lookup(in.Name)
		if !def.Stateful() {
			continue
		}
		at, err := a.inputArrival(in)
		if err != nil {
			return rep, err
		}
		consider(at+a.logicNs(def)+a.opts.SetupNs, in.Dest)
	}
	// Paths ending at output ports.
	for _, p := range a.f.Outputs {
		at, err := a.valueArrival(p.Name)
		if err != nil {
			return rep, err
		}
		consider(at, p.Name)
	}
	if worst <= 0 {
		worst = a.opts.ClkToQNs + a.opts.SetupNs // pure wiring design
	}
	rep.CriticalNs = worst
	rep.FMaxMHz = 1000.0 / worst
	// Reconstruct the path. Predecessor links can cross a register back
	// into its own input cone (feedback designs), so stop on revisits.
	visited := make(map[string]bool)
	for at := worstEnd; at != "" && !visited[at]; at = a.pred[at] {
		visited[at] = true
		rep.Path = append(rep.Path, at)
	}
	for i, j := 0, len(rep.Path)-1; i < j; i, j = i+1, j-1 {
		rep.Path[i], rep.Path[j] = rep.Path[j], rep.Path[i]
	}
	return rep, nil
}

// valueArrival returns when the named value is stable after a clock edge.
func (a *analyzer) valueArrival(name string) (float64, error) {
	if at, done := a.arrival[name]; done && a.state[name] == 2 {
		return at, nil
	}
	i, ok := a.byDest[name]
	if !ok {
		return 0, nil // function input: registered at the boundary
	}
	if a.state[name] == 1 {
		return 0, fmt.Errorf("timing: combinational cycle through %s", name)
	}
	a.state[name] = 1
	in := a.f.Body[i]

	var at float64
	var err error
	if in.IsWire() {
		// Wire instructions are pure routing: they inherit the worst input
		// arrival and defer the route cost to their consumer.
		at, err = a.maxArgArrival(in, false)
		if err != nil {
			return 0, err
		}
	} else {
		def, _ := a.target.Lookup(in.Name)
		if def.Stateful() {
			at = a.opts.ClkToQNs // output comes straight from the register
		} else {
			at, err = a.inputArrival(in)
			if err != nil {
				return 0, err
			}
			at += a.logicNs(def)
		}
	}
	a.arrival[name] = at
	a.state[name] = 2
	return at, nil
}

// inputArrival is the worst arrival over an instruction's arguments plus
// route delays into it.
func (a *analyzer) inputArrival(in asm.Instr) (float64, error) {
	return a.maxArgArrival(in, true)
}

func (a *analyzer) maxArgArrival(in asm.Instr, withRoute bool) (float64, error) {
	worst := 0.0
	var worstArg string
	for _, arg := range in.Args {
		at, err := a.valueArrival(arg)
		if err != nil {
			return 0, err
		}
		if withRoute {
			at += a.routeNs(arg, in)
		}
		if at >= worst {
			worst = at
			worstArg = arg
		}
	}
	if worstArg != "" {
		a.pred[in.Dest] = worstArg
	}
	return worst, nil
}

func (a *analyzer) logicNs(def *tdl.Def) float64 {
	return float64(def.Latency) * a.opts.UnitNs
}

// routeNs models the net from the producer of value arg to instruction in.
func (a *analyzer) routeNs(arg string, in asm.Instr) float64 {
	pu, okU := a.effectiveLoc(arg)
	pv, okV := a.instrLoc(in)
	if !okU || !okV {
		return a.opts.RouteBaseNs
	}
	// Dedicated cascade route: producer drives CO, consumer reads CI, and
	// they sit in adjacent rows of the same column.
	if okU && okV && a.isCascadePair(arg, in, pu, pv) {
		return a.opts.CascadeNs
	}
	gxU, errU := a.dev.GlobalX(pu.prim, pu.x)
	gxV, errV := a.dev.GlobalX(pv.prim, pv.x)
	if errU != nil || errV != nil {
		return a.opts.RouteBaseNs
	}
	dist := abs(gxU-gxV) + abs(pu.y-pv.y)
	return a.opts.RouteBaseNs + float64(dist)*a.opts.RoutePerHopNs
}

type loc struct {
	prim ir.Resource
	x, y int
}

// effectiveLoc finds where a value physically originates: its producing
// instruction's slice, looking through wire instructions.
func (a *analyzer) effectiveLoc(name string) (loc, bool) {
	seen := 0
	for {
		i, ok := a.byDest[name]
		if !ok {
			return loc{}, false // input port
		}
		in := a.f.Body[i]
		if !in.IsWire() {
			return a.instrLoc(in)
		}
		if len(in.Args) == 0 {
			return loc{}, false // const
		}
		name = in.Args[0]
		if seen++; seen > len(a.f.Body) {
			return loc{}, false
		}
	}
}

func (a *analyzer) instrLoc(in asm.Instr) (loc, bool) {
	if in.IsWire() || !in.Loc.Resolved() {
		return loc{}, false
	}
	return loc{prim: in.Loc.Prim, x: int(in.Loc.X.Off), y: int(in.Loc.Y.Off)}, true
}

// isCascadePair recognizes the §5.2 idiom after placement: _co/_coci
// producer directly below a _ci/_coci consumer in the same column.
func (a *analyzer) isCascadePair(arg string, in asm.Instr, pu, pv loc) bool {
	i, ok := a.byDest[arg]
	if !ok {
		return false
	}
	prod := a.f.Body[i]
	if prod.IsWire() || in.IsWire() {
		return false
	}
	drivesCo := strings.HasSuffix(prod.Name, "_co") || strings.HasSuffix(prod.Name, "_coci")
	readsCi := strings.HasSuffix(in.Name, "_ci") || strings.HasSuffix(in.Name, "_coci")
	if !drivesCo || !readsCi {
		return false
	}
	return pu.prim == pv.prim && pu.x == pv.x && pv.y == pu.y+1
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// familyConfigs is one pipeline config per bundled family.
func familyConfigs(t testing.TB) map[string]*pipeline.Config {
	t.Helper()
	out := map[string]*pipeline.Config{
		"ultrascale": {Target: ultrascale.Target(), Device: ultrascale.Device(), Cascades: ultrascale.Cascades()},
		"agilex":     {Target: agilex.Target(), Device: agilex.Device(), Cascades: agilex.Cascades()},
	}
	for _, cfg := range out {
		lib, err := isel.NewLibrary(cfg.Target)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Lib = lib
	}
	return out
}

// corpus is every bundled example, the paper's three benchmark kernels
// (cascade chains, vectorized adds, register feedback) and n generated
// programs.
func corpus(t testing.TB, n int) []*ir.Func {
	t.Helper()
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
	for seed := 0; seed < n; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		funcs = append(funcs, irgen.Generate(rng, irgen.Config{Instrs: 6 + seed%40, WithVectors: seed%2 == 0}))
	}
	return funcs
}

// TestAnalyzeMatchesReference: over every bundled example and 500
// generated programs, on both families, placed three ways, the adapter
// over the shared walker reports the reference analyzer's critical path
// to the bit and names the same path.
func TestAnalyzeMatchesReference(t *testing.T) {
	programs := 500
	if testing.Short() {
		programs = 60
	}
	funcs := corpus(t, programs)
	for family, base := range familyConfigs(t) {
		for _, mode := range []string{"default", "shrink", "timingdriven"} {
			cfg := *base
			cfg.Shrink, cfg.TimingDriven = mode == "shrink", mode == "timingdriven"
			compared := 0
			for _, f := range funcs {
				art, err := pipeline.Compile(context.Background(), &cfg, f)
				if err != nil {
					continue // the generator can emit programs a family cannot place
				}
				got, err := timing.Analyze(art.Placed, cfg.Target, cfg.Device, timing.DefaultOptions())
				if err != nil {
					t.Fatalf("%s/%s %s: %v", family, mode, f.Name, err)
				}
				want, err := referenceAnalyze(art.Placed, cfg.Target, cfg.Device, timing.DefaultOptions())
				if err != nil {
					t.Fatalf("%s/%s %s: reference: %v", family, mode, f.Name, err)
				}
				if math.Float64bits(got.CriticalNs) != math.Float64bits(want.CriticalNs) ||
					math.Float64bits(got.FMaxMHz) != math.Float64bits(want.FMaxMHz) || !slices.Equal(got.Path, want.Path) {
					t.Fatalf("%s/%s %s: got %v, reference %v\n%s", family, mode, f.Name, got, want, art.PlacedText)
				}
				if math.Float64bits(got.CriticalNs) != math.Float64bits(art.CriticalNs) {
					t.Fatalf("%s/%s %s: artifact carries %v, Analyze gives %v", family, mode, f.Name, art.CriticalNs, got.CriticalNs)
				}
				compared++
			}
			if compared < len(funcs)*9/10 {
				t.Errorf("%s/%s: only %d of %d programs compiled", family, mode, compared, len(funcs))
			}
		}
	}
}

// cyclic is placed assembly whose two adders feed each other.
const cyclic = `def loop(a:i8) -> (y:i8) {
    t0:i8 = lut_add_i8(t1, a) @lut(0, 0);
    t1:i8 = lut_add_i8(t0, a) @lut(0, 1);
    y:i8 = id(t1);
}`

// TestCombinationalCycleIsAnError: a cycle that crosses no register comes
// back from the shared walker as a *timing.CycleError naming the value,
// under the message the reference analyzer gave.
func TestCombinationalCycleIsAnError(t *testing.T) {
	f, err := asm.Parse(cyclic)
	if err != nil {
		t.Fatal(err)
	}
	_, err = timing.Analyze(f, ultrascale.Target(), ultrascale.Device(), timing.DefaultOptions())
	var cycle *timing.CycleError
	if !errors.As(err, &cycle) || (cycle.Name != "t0" && cycle.Name != "t1") {
		t.Fatalf("Analyze on a combinational cycle: %v", err)
	}
	_, want := referenceAnalyze(f, ultrascale.Target(), ultrascale.Device(), timing.DefaultOptions())
	if want == nil || err.Error() != want.Error() {
		t.Errorf("Analyze: %v, reference: %v", err, want)
	}
}
