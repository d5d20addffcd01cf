package asm_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/cascade"
	"reticle/internal/device"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/isel"
	"reticle/internal/place"
	"reticle/internal/target"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
	"reticle/internal/tdl"
)

var updateOutcomes = flag.Bool("update", false, "rewrite testdata/outcomes.golden")

// damaged returns src with one seeded edit: a truncation, a deleted byte,
// or a spliced fragment — the inputs that reach the parsers' error paths.
func damaged(rng *rand.Rand, src string) string {
	if len(src) == 0 {
		return src
	}
	at := rng.Intn(len(src))
	switch rng.Intn(3) {
	case 0:
		return src[:at]
	case 1:
		return src[:at] + src[at+1:]
	default:
		frags := []string{"99999999999999999999", "-", "?", "??", "@", "}", "(", "def ", " é ", "\n", "//", "<", "i0", ", ,", "\xff",
			"[", "]", "+", "->", ";", "lut", "dsp(", "y+1", ", 0]"}
		return src[:at] + frags[rng.Intn(len(frags))] + src[at:]
	}
}

// outcome is one parsed input: where it came from, its bytes, and what the
// parsers made of it.
type outcome struct {
	name, src, result string
}

// asmOutcome is what Parse and ParseResolved make of one assembly source:
// the printed function, or the exact error text, from each.
func asmOutcome(src string, t *tdl.Target) string {
	var b strings.Builder
	if f, err := asm.Parse(src); err != nil {
		fmt.Fprintf(&b, "parse: error: %v\n", err)
	} else {
		fmt.Fprintf(&b, "parse:\n%s", f)
	}
	if f, syms, err := asm.ParseResolved(src, t); err != nil {
		fmt.Fprintf(&b, "resolved: error: %v\n", err)
	} else {
		fmt.Fprintf(&b, "resolved: args %v outputs %v\n%s", syms.Args, syms.Outputs, f)
	}
	return b.String()
}

// tdlOutcome is what tdl.Parse makes of one target description: every
// definition printed, in name order, or the exact error text.
func tdlOutcome(src string) string {
	t, err := tdl.Parse("golden", src)
	if err != nil {
		return fmt.Sprintf("error: %v\n", err)
	}
	var b strings.Builder
	for _, d := range t.Defs() {
		b.WriteString(d.String())
	}
	return b.String()
}

// asmSources is the assembly of every bundled example and 32 irgen seeds
// on both families, at the select, cascade and place rows.
func asmSources(t *testing.T) (names, srcs []string, targets []*tdl.Target) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.ret"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled programs: %v", err)
	}
	var progs []string
	var fns []*ir.Func
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		progs, fns = append(progs, filepath.Base(p)), append(fns, f)
	}
	for seed := int64(0); seed < 32; seed++ {
		progs = append(progs, fmt.Sprintf("irgen-%d", seed))
		fns = append(fns, irgen.Generate(rand.New(rand.NewSource(seed)), irgen.Config{Instrs: 16, WithVectors: true}))
	}
	for _, fam := range []struct {
		target   *tdl.Target
		dev      *device.Device
		cascades map[string]target.CascadeVariants
	}{
		{ultrascale.Target(), ultrascale.Device(), ultrascale.Cascades()},
		{agilex.Target(), agilex.Device(), agilex.Cascades()},
	} {
		lib, err := isel.NewLibrary(fam.target)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fns {
			selected, _, err := isel.SelectWithSymbols(f, nil, lib, isel.Options{})
			if err != nil {
				continue // a program this family cannot select has no assembly
			}
			cascaded, _, err := cascade.Apply(selected, fam.target, cascade.Options{
				Cascades: fam.cascades, AccPort: "c", MaxChain: fam.dev.Height,
			})
			if err != nil {
				t.Fatalf("%s on %s: cascade: %v", progs[i], fam.target.Name, err)
			}
			placed, err := place.PlaceContext(context.Background(), cascaded, fam.dev, place.Options{})
			if err != nil {
				t.Fatalf("%s on %s: place: %v", progs[i], fam.target.Name, err)
			}
			for j, af := range []*asm.Func{selected, cascaded, placed.Fn} {
				names = append(names, fmt.Sprintf("%s/%s/%s", fam.target.Name, progs[i], []string{"select", "cascade", "place"}[j]))
				srcs = append(srcs, af.String())
				targets = append(targets, fam.target)
			}
		}
	}
	return names, srcs, targets
}

// parseOutcomes parses every source and damaged copies of it.
func parseOutcomes(t *testing.T) []outcome {
	rng := rand.New(rand.NewSource(54))
	var out []outcome
	record := func(name, src string, parse func(string) string, copies int) {
		out = append(out, outcome{name, src, parse(src)})
		for i := 0; i < copies; i++ {
			bad := damaged(rng, src)
			out = append(out, outcome{fmt.Sprintf("%s~%d", name, i), bad, parse(bad)})
		}
	}
	for _, fam := range []struct {
		name, src string
	}{{"ultrascale", ultrascale.Source()}, {"agilex", agilex.Source()}} {
		record("tdl/"+fam.name, fam.src, tdlOutcome, 200)
	}
	for i, src := range []string{
		"",
		"// nothing",
		"two[lut, 1, 1](a:i8) -> (y:i8, z:i8) y",
		"one[lut, 1, 1](a:i8) -> (y:i8) { y:i8 = id(a) @lut; }",
		"one[lut, 1, 1](a:i8) -> (y:i8) { y:i8 = zork(a); }",
	} {
		record(fmt.Sprintf("tdl/hand-%d", i), src, tdlOutcome, 0)
	}
	names, srcs, targets := asmSources(t)
	for i, src := range srcs {
		tgt := targets[i]
		record("asm/"+names[i], src, func(s string) string { return asmOutcome(s, tgt) }, 10)
	}
	us := ultrascale.Target()
	for i, src := range []string{
		"",
		"// nothing",
		srcs[0] + srcs[1],
		srcs[0] + "def",
		"def f(a:i8) -> (y:i8) { y:i8 = add(a, a) @??(0, 0); }",
		"def f(a:i8) -> (y:i8) { y:i8 = add(a, a); }",
	} {
		record(fmt.Sprintf("asm/hand-%d", i), src, func(s string) string { return asmOutcome(s, us) }, 0)
	}
	return out
}

// TestParseOutcomesGolden pins what the assembly and target-description
// parsers make of their sources and of seeded damaged copies of them: the
// printed result or the exact error text, input by input. The golden holds
// one digest over every input and outcome, and a readable sample of the
// error texts: every 40th, and each of the hand-written inputs'.
func TestParseOutcomesGolden(t *testing.T) {
	outs := parseOutcomes(t)
	h := sha256.New()
	errs := 0
	var sample strings.Builder
	for _, o := range outs {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00", o.name, o.src, o.result)
		if !strings.Contains(o.result, "error: ") {
			continue
		}
		if errs%40 == 0 || strings.Contains(o.name, "/hand-") {
			var lines []string
			for _, l := range strings.Split(o.result, "\n") {
				if strings.Contains(l, "error: ") {
					lines = append(lines, l)
				}
			}
			fmt.Fprintf(&sample, "%s: %s\n", o.name, strings.Join(lines, " | "))
		}
		errs++
	}
	got := fmt.Sprintf("inputs %d with an error %d\ndigest %x\n%s", len(outs), errs, h.Sum(nil), sample.String())
	path := filepath.Join("testdata", "outcomes.golden")
	if *updateOutcomes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("parse outcomes moved:\ngot\n%s\nwant\n%s", got, want)
	}
}
