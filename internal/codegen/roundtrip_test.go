package codegen

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/isel"
	"reticle/internal/place"
	"reticle/internal/target/ultrascale"
	"reticle/internal/verilog"
)

// TestEmittedVerilogRoundTrips generates random programs, runs the full
// pipeline, and re-parses the emitted Verilog: print(parse(print(m))) must
// be a fixpoint. This exercises the printer and parser against everything
// codegen can produce.
func TestEmittedVerilogRoundTrips(t *testing.T) {
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	dev := ultrascale.Device()
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := irgen.Generate(rng, irgen.Config{Instrs: 14, WithVectors: true})
		af, err := isel.SelectWithLibrary(f, lib, isel.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := place.PlaceContext(context.Background(), af, dev, place.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m, _, err := Generate(res.Fn, ultrascale.Target())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		printed := m.String()
		back, err := verilog.ParseModule(printed)
		if err != nil {
			t.Fatalf("seed %d: emitted Verilog does not parse: %v\n%s", seed, err, printed)
		}
		if got := back.String(); got != printed {
			t.Fatalf("seed %d: round trip mismatch:\n%s\nvs\n%s", seed, printed, got)
		}
	}
}

// TestLocAttributesMatchPlacement parses the emitted Verilog and audits
// that every primitive's LOC annotation equals the slice placement chose —
// the §5.4 contract that codegen "reflects accumulated decisions".
func TestLocAttributesMatchPlacement(t *testing.T) {
	src := `
def audit(a:i8, b:i8, c:i8, en:bool) -> (y:i8, z:i8) {
    t0:i8 = mul(a, b) @dsp;
    t1:i8 = add(t0, c) @dsp;
    y:i8 = reg[0](t1, en) @dsp;
    t2:i8 = add(a, c) @lut;
    z:i8 = reg[0](t2, en) @lut;
}
`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	af, err := isel.SelectWithLibrary(f, lib, isel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := place.PlaceContext(context.Background(), af, ultrascale.Device(), place.Options{Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Generate(res.Fn, ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := verilog.ParseModule(m.String())
	if err != nil {
		t.Fatal(err)
	}

	// Collect LOC attributes per emitted instance.
	locs := map[string]string{}
	for _, item := range parsed.Items {
		inst, ok := item.(verilog.Instance)
		if !ok {
			continue
		}
		for _, a := range inst.Attrs {
			if a.Key == "LOC" {
				locs[inst.Name] = a.Value
			}
		}
	}
	if len(locs) == 0 {
		t.Fatal("no LOC attributes found")
	}
	// Every DSP instance must sit exactly where placement said.
	for _, in := range res.Fn.Body {
		if in.IsWire() {
			continue
		}
		dest := in.Dest
		prefix := "SLICE"
		if in.Loc.Prim == ir.ResDsp {
			prefix = "DSP48E2"
		}
		want := fmt.Sprintf("%s_X%dY%d", prefix, in.Loc.X.Off, in.Loc.Y.Off)
		found := false
		for name, loc := range locs {
			if strings.Contains(name, dest) && loc == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no instance for %s carries LOC %s (locs: %v)", dest, want, locs)
		}
	}
}

// TestDspInstancesNeverShareSlices parses a larger design and checks no
// two DSP primitives claim the same LOC — the all-different constraint,
// verified at the Verilog level.
func TestDspInstancesNeverShareSlices(t *testing.T) {
	b := ir.NewBuilder("many")
	i8 := ir.Int(8)
	var outs []string
	for i := 0; i < 30; i++ {
		a := b.Input(fmt.Sprintf("a%d", i), i8)
		c := b.Input(fmt.Sprintf("b%d", i), i8)
		outs = append(outs, b.Mul(i8, a, c, ir.ResDsp))
	}
	for _, o := range outs {
		b.Output(o, i8)
	}
	f := b.MustBuild()
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	af, err := isel.SelectWithLibrary(f, lib, isel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := place.PlaceContext(context.Background(), af, ultrascale.Device(), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Generate(res.Fn, ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := verilog.ParseModule(m.String())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, item := range parsed.Items {
		inst, ok := item.(verilog.Instance)
		if !ok || inst.Module != "DSP48E2" {
			continue
		}
		for _, a := range inst.Attrs {
			if a.Key != "LOC" {
				continue
			}
			if prev, dup := seen[a.Value]; dup {
				t.Fatalf("instances %s and %s share %s", prev, inst.Name, a.Value)
			}
			seen[a.Value] = inst.Name
		}
	}
	if len(seen) != 30 {
		t.Errorf("DSP instances with LOC = %d, want 30", len(seen))
	}
}
